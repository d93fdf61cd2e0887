//! Randomized tests: stream round-trips and checkpoint/restore on random
//! object trees.
//!
//! Previously written with `proptest`; rewritten over the in-repo seeded
//! PRNG so the suite builds with no network access. Each case is fully
//! determined by its seed, named in the assertion message for replay.

use ickp_core::{
    decode, restore, verify_restore, CheckpointConfig, CheckpointKind, CheckpointStore,
    Checkpointer, MethodTable, RecordedValue, RestorePolicy, StreamWriter,
};
use ickp_heap::{ClassRegistry, FieldType, Heap, ObjectId, StableId, Value};
use ickp_prng::Prng;

/// A random primitive value paired with its field type.
#[derive(Debug, Clone, Copy)]
enum PrimSpec {
    Int(i32),
    Long(i64),
    Double(f64),
    Bool(bool),
}

fn random_prim(rng: &mut Prng) -> PrimSpec {
    match rng.below(4) {
        0 => PrimSpec::Int(rng.next_i32()),
        1 => PrimSpec::Long(rng.next_i64()),
        2 => PrimSpec::Double(f64::from_bits(rng.next_u64())),
        _ => PrimSpec::Bool(rng.next_bool()),
    }
}

/// Any sequence of primitive fields round-trips bit-exactly through the
/// stream encoder and decoder.
#[test]
fn stream_round_trips_arbitrary_layouts() {
    for case in 0..96u64 {
        let mut rng = Prng::seed_from_u64(0xc0de_0000 + case);
        let prims: Vec<PrimSpec> = (0..1 + rng.index(23)).map(|_| random_prim(&mut rng)).collect();

        let mut reg = ClassRegistry::new();
        let fields: Vec<(String, FieldType)> = prims
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let ty = match p {
                    PrimSpec::Int(_) => FieldType::Int,
                    PrimSpec::Long(_) => FieldType::Long,
                    PrimSpec::Double(_) => FieldType::Double,
                    PrimSpec::Bool(_) => FieldType::Bool,
                };
                (format!("f{i}"), ty)
            })
            .collect();
        let refs: Vec<(&str, FieldType)> = fields.iter().map(|(n, t)| (n.as_str(), *t)).collect();
        let class = reg.define("X", None, &refs).unwrap();

        let mut w = StreamWriter::new(7, CheckpointKind::Full, &[StableId(1)]);
        w.begin_object(StableId(1), class, prims.len());
        for p in &prims {
            match p {
                PrimSpec::Int(v) => w.write_int(*v),
                PrimSpec::Long(v) => w.write_long(*v),
                PrimSpec::Double(v) => w.write_double(*v),
                PrimSpec::Bool(v) => w.write_bool(*v),
            }
        }
        let bytes = w.finish();
        let d = decode(&bytes, &reg).unwrap();
        assert_eq!(d.objects.len(), 1, "case {case}");
        for (p, r) in prims.iter().zip(&d.objects[0].fields) {
            match (p, r) {
                (PrimSpec::Int(a), RecordedValue::Int(b)) => assert_eq!(a, b, "case {case}"),
                (PrimSpec::Long(a), RecordedValue::Long(b)) => assert_eq!(a, b, "case {case}"),
                (PrimSpec::Double(a), RecordedValue::Double(b)) => {
                    assert_eq!(a.to_bits(), b.to_bits(), "case {case}")
                }
                (PrimSpec::Bool(a), RecordedValue::Bool(b)) => assert_eq!(a, b, "case {case}"),
                (p, r) => panic!("case {case}: kind mismatch {p:?} vs {r:?}"),
            }
        }
    }
}

/// Random binary trees checkpoint and restore exactly, under both
/// full-then-increment and all-increment protocols.
#[test]
fn random_trees_restore_exactly() {
    for case in 0..96u64 {
        let mut rng = Prng::seed_from_u64(0x7ee5_0000 + case);
        let structure: Vec<bool> = (0..1 + rng.index(39)).map(|_| rng.next_bool()).collect();
        let mutations: Vec<(u16, i32)> =
            (0..rng.index(30)).map(|_| (rng.below(1 << 16) as u16, rng.next_i32())).collect();
        let full_base = rng.next_bool();

        let mut reg = ClassRegistry::new();
        let node = reg
            .define(
                "Node",
                None,
                &[("v", FieldType::Int), ("l", FieldType::Ref(None)), ("r", FieldType::Ref(None))],
            )
            .unwrap();
        let mut heap = Heap::new(reg);

        // Build a random tree: each `true` attaches a new node to a
        // random existing one on the left or right.
        let root = heap.alloc(node).unwrap();
        let mut nodes: Vec<ObjectId> = vec![root];
        for (i, left) in structure.iter().enumerate() {
            let parent = nodes[i % nodes.len()];
            let slot = if *left { 1 } else { 2 };
            if heap.field(parent, slot).unwrap().is_null() {
                let child = heap.alloc(node).unwrap();
                heap.set_field(parent, slot, Value::Ref(Some(child))).unwrap();
                nodes.push(child);
            }
        }

        let table = MethodTable::derive(heap.registry());
        let mut store = CheckpointStore::new();
        if full_base {
            let mut full = Checkpointer::new(CheckpointConfig::full());
            store.push(full.checkpoint(&mut heap, &table, &[root]).unwrap()).unwrap();
        } else {
            let mut incr = Checkpointer::new(CheckpointConfig::incremental());
            store.push(incr.checkpoint(&mut heap, &table, &[root]).unwrap()).unwrap();
        }

        // Random mutation rounds, each followed by an increment.
        let mut incr = Checkpointer::new(CheckpointConfig::incremental());
        // Fast-forward the sequence past the base.
        incr.checkpoint(&mut heap.clone(), &table, &[]).unwrap();
        for chunk in mutations.chunks(5) {
            for (pick, v) in chunk {
                let target = nodes[*pick as usize % nodes.len()];
                heap.set_field(target, 0, Value::Int(*v)).unwrap();
            }
            let rec = incr.checkpoint(&mut heap, &table, &[root]).unwrap();
            store.push(rec).unwrap();
        }

        let policy =
            if full_base { RestorePolicy::RequireFullBase } else { RestorePolicy::Lenient };
        let rebuilt = restore(&store, heap.registry(), policy).unwrap();
        assert_eq!(verify_restore(&heap, &[root], &rebuilt).unwrap(), None, "case {case}");
    }
}

/// Compaction of any such store preserves the recovered state.
#[test]
fn compaction_is_semantics_preserving() {
    for case in 0..96u64 {
        let mut rng = Prng::seed_from_u64(0xc0ac_0000 + case);
        let mutations: Vec<(u8, i32)> =
            (0..1 + rng.index(24)).map(|_| (rng.below(256) as u8, rng.next_i32())).collect();

        let mut reg = ClassRegistry::new();
        let node = reg
            .define("Node", None, &[("v", FieldType::Int), ("next", FieldType::Ref(None))])
            .unwrap();
        let mut heap = Heap::new(reg);
        let mut nodes = Vec::new();
        let mut next = None;
        for _ in 0..8 {
            let n = heap.alloc(node).unwrap();
            heap.set_field(n, 1, Value::Ref(next)).unwrap();
            next = Some(n);
            nodes.push(n);
        }
        let root = *nodes.last().unwrap();

        let table = MethodTable::derive(heap.registry());
        let mut ckp = Checkpointer::new(CheckpointConfig::incremental());
        let mut store = CheckpointStore::new();
        store.push(ckp.checkpoint(&mut heap, &table, &[root]).unwrap()).unwrap();
        for chunk in mutations.chunks(4) {
            for (pick, v) in chunk {
                let target = nodes[*pick as usize % nodes.len()];
                heap.set_field(target, 0, Value::Int(*v)).unwrap();
            }
            store.push(ckp.checkpoint(&mut heap, &table, &[root]).unwrap()).unwrap();
        }

        let compacted = ickp_core::compact(&store, &heap).unwrap();
        let a = restore(&store, heap.registry(), RestorePolicy::Lenient).unwrap();
        let b = restore(&compacted, heap.registry(), RestorePolicy::RequireFullBase).unwrap();
        assert_eq!(verify_restore(&heap, &[root], &a).unwrap(), None, "case {case}");
        assert_eq!(verify_restore(&heap, &[root], &b).unwrap(), None, "case {case}");
    }
}
