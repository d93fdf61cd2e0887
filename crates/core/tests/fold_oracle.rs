//! The index fold against the fold it replaced.
//!
//! `restore`, `merge_records` and `compact` fold a chain by stable id
//! through an index into the record bytes. The oracle below is the fold
//! as it stood before: decode every record in full, keep each stable id's
//! last decoded object in first-touch order in a `HashMap`, re-encode the
//! survivors value by value. Random chains — fresh objects, overwritten
//! fields of every type, rewired and detached references, garbage
//! collection — must give identical results through both:
//!
//! * `restore`: the same objects in the same allocation order, the same
//!   field values, roots and `lookup` answers;
//! * `merge_records` over random runs and `compact`: byte-identical
//!   records;
//! * a chain whose base is dropped: the same `MissingObject` id.
//!
//! Each case is fully determined by its seed, named in every assertion.

use ickp_core::{
    compact, decode, merge_records, restore, CheckpointConfig, CheckpointKind, CheckpointRecord,
    CheckpointStore, Checkpointer, CoreError, MethodTable, RecordedObject, RecordedValue,
    RestorePolicy, StreamWriter,
};
use ickp_heap::{ClassId, ClassRegistry, FieldType, Heap, ObjectId, StableId, Value};
use ickp_prng::Prng;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// The decode-then-`HashMap` fold: last decoded object per stable id, in
/// first-touch order.
struct Oracle {
    objects: Vec<RecordedObject>,
    slot: HashMap<StableId, usize>,
}

impl Oracle {
    fn of(records: &[CheckpointRecord], registry: &ClassRegistry) -> Oracle {
        let (mut objects, mut slot) = (Vec::new(), HashMap::new());
        for record in records {
            for obj in decode(record.bytes(), registry).unwrap().objects {
                match slot.entry(obj.stable) {
                    Entry::Occupied(e) => objects[*e.get()] = obj,
                    Entry::Vacant(e) => {
                        e.insert(objects.len());
                        objects.push(obj);
                    }
                }
            }
        }
        Oracle { objects, slot }
    }

    /// Re-encodes the objects `keep` selects, value by value.
    fn encode(&self, tip: &CheckpointRecord, kind: CheckpointKind, keep: &[bool]) -> Vec<u8> {
        let mut w = StreamWriter::new(tip.seq(), kind, tip.roots());
        for (obj, _) in self.objects.iter().zip(keep).filter(|(_, &k)| k) {
            w.begin_object(obj.stable, obj.class, obj.fields.len());
            for field in &obj.fields {
                match *field {
                    RecordedValue::Int(v) => w.write_int(v),
                    RecordedValue::Long(v) => w.write_long(v),
                    RecordedValue::Double(v) => w.write_double(v),
                    RecordedValue::Bool(v) => w.write_bool(v),
                    RecordedValue::Ref(v) => w.write_ref(v),
                }
            }
        }
        w.finish()
    }

    /// The error the old restore reported: the first dangling reference
    /// in fold order, then the first dangling root.
    fn missing(&self, roots: &[StableId]) -> Option<StableId> {
        let refs = self.objects.iter().flat_map(|o| &o.fields).filter_map(|f| match *f {
            RecordedValue::Ref(Some(child)) => Some(child),
            _ => None,
        });
        refs.chain(roots.iter().copied()).find(|id| !self.slot.contains_key(id))
    }
}

fn registry() -> (ClassRegistry, ClassId) {
    let mut reg = ClassRegistry::new();
    let node = reg
        .define(
            "Node",
            None,
            &[
                ("i", FieldType::Int),
                ("l", FieldType::Long),
                ("d", FieldType::Double),
                ("b", FieldType::Bool),
                ("left", FieldType::Ref(None)),
                ("right", FieldType::Ref(None)),
            ],
        )
        .unwrap();
    (reg, node)
}

/// A random run: the producer's final heap and roots, and its chain.
fn random_chain(rng: &mut Prng) -> (Heap, Vec<ObjectId>, Vec<CheckpointRecord>) {
    let (reg, node) = registry();
    let mut heap = Heap::new(reg);
    let roots: Vec<ObjectId> = (0..3).map(|_| heap.alloc(node).unwrap()).collect();
    let mut objects = roots.clone();
    let table = MethodTable::derive(heap.registry());
    let mut ckp = Checkpointer::new(CheckpointConfig::incremental());
    let mut records = Vec::new();
    for round in 0..3 + rng.index(6) {
        let steps = if round == 0 { 60 } else { 5 + rng.index(30) };
        for _ in 0..steps {
            let id = *rng.choose(&objects);
            match rng.below(100) {
                0..=39 => {
                    let (slot, value) = match rng.index(4) {
                        0 => (0, Value::Int(rng.next_i32())),
                        1 => (1, Value::Long(rng.next_i64())),
                        2 => (2, Value::Double(rng.next_f64())),
                        _ => (3, Value::Bool(rng.next_bool())),
                    };
                    heap.set_field(id, slot, value).unwrap();
                }
                40..=64 => {
                    let target = if rng.ratio(1, 4) { None } else { Some(*rng.choose(&objects)) };
                    heap.set_field(id, 4 + rng.index(2), Value::Ref(target)).unwrap();
                }
                65..=94 => {
                    let fresh = heap.alloc(node).unwrap();
                    heap.set_field(fresh, 0, Value::Int(rng.next_i32())).unwrap();
                    heap.set_field(id, 4 + rng.index(2), Value::Ref(Some(fresh))).unwrap();
                    objects.push(fresh);
                }
                _ => {
                    heap.collect(&roots).unwrap();
                    objects.retain(|&o| heap.contains(o));
                }
            }
        }
        records.push(ckp.checkpoint(&mut heap, &table, &roots).unwrap());
    }
    (heap, roots, records)
}

fn store_of(records: &[CheckpointRecord]) -> CheckpointStore {
    let mut store = CheckpointStore::new();
    for r in records {
        store.push_merged(r.clone()).unwrap();
    }
    store
}

/// `restore` of `records` agrees with the oracle in every observable.
/// Returns whether the chain dangled (both reported `MissingObject`).
fn assert_restore_matches(
    records: &[CheckpointRecord],
    registry: &ClassRegistry,
    seed: u64,
) -> bool {
    let oracle = Oracle::of(records, registry);
    let tip = records.last().unwrap();
    let restored = restore(&store_of(records), registry, RestorePolicy::Lenient);
    let restored = match (oracle.missing(tip.roots()), restored) {
        (None, Ok(restored)) => restored,
        (Some(id), Err(e)) => {
            assert_eq!(e, CoreError::MissingObject(id), "seed {seed}");
            return true;
        }
        (expected, got) => panic!("seed {seed}: oracle {expected:?}, restore {got:?}"),
    };
    let heap = restored.heap();
    let order: Vec<StableId> = heap.iter_live().map(|id| heap.stable_id(id).unwrap()).collect();
    let expected: Vec<StableId> = oracle.objects.iter().map(|o| o.stable).collect();
    assert_eq!(order, expected, "seed {seed}: allocation order");
    let stable_of = |id: ObjectId| heap.stable_id(id).unwrap();
    for obj in &oracle.objects {
        let handle = restored.lookup(obj.stable).expect("every folded id is restored");
        assert_eq!(stable_of(handle), obj.stable, "seed {seed}");
        assert_eq!(heap.class_of(handle).unwrap(), obj.class, "seed {seed}");
        for (slot, field) in obj.fields.iter().enumerate() {
            let got = heap.field(handle, slot).unwrap();
            let same = match (*field, got) {
                (RecordedValue::Int(a), Value::Int(b)) => a == b,
                (RecordedValue::Long(a), Value::Long(b)) => a == b,
                (RecordedValue::Double(a), Value::Double(b)) => a.to_bits() == b.to_bits(),
                (RecordedValue::Bool(a), Value::Bool(b)) => a == b,
                (RecordedValue::Ref(a), Value::Ref(b)) => a == b.map(stable_of),
                _ => false,
            };
            assert!(same, "seed {seed}: {} slot {slot}: {field:?} vs {got:?}", obj.stable);
        }
    }
    let roots: Vec<StableId> = restored.roots().iter().map(|&r| stable_of(r)).collect();
    assert_eq!(roots, tip.roots(), "seed {seed}: roots");
    assert_eq!(restored.lookup(StableId(u64::MAX)), None, "seed {seed}");
    false
}

#[test]
fn index_fold_matches_the_decoding_fold() {
    let (mut dangled, mut shed) = (0, 0);
    for seed in 0..48u64 {
        let mut rng = Prng::seed_from_u64(seed);
        let (heap, _, records) = random_chain(&mut rng);
        let registry = heap.registry();
        assert!(!assert_restore_matches(&records, registry, seed), "seed {seed}");

        // Merge random runs: each merged record is byte-identical to the
        // oracle's re-encoding, and the merged chain restores the same.
        let mut merged = Vec::new();
        let mut start = 0;
        while start < records.len() {
            let end = (start + 1 + rng.index(3)).min(records.len());
            let run = &records[start..end];
            let oracle = Oracle::of(run, registry);
            let keep = vec![true; oracle.objects.len()];
            let expected = oracle.encode(run.last().unwrap(), run[0].kind(), &keep);
            let got = merge_records(run, registry).unwrap();
            assert_eq!(got.bytes(), &expected[..], "seed {seed}: merge of {start}..{end}");
            merged.push(got);
            start = end;
        }
        assert!(!assert_restore_matches(&merged, registry, seed), "seed {seed}");

        // Compaction keeps what the tip's roots or the producer's heap
        // reach, in fold order, byte-identical to the oracle's record.
        let oracle = Oracle::of(&records, registry);
        let mut keep = vec![false; oracle.objects.len()];
        let mut stack: Vec<StableId> = records.last().unwrap().roots().to_vec();
        stack.extend(heap.iter_live().map(|id| heap.stable_id(id).unwrap()));
        while let Some(id) = stack.pop() {
            let Some(&s) = oracle.slot.get(&id) else { continue };
            if !std::mem::replace(&mut keep[s], true) {
                stack.extend(oracle.objects[s].fields.iter().filter_map(|f| match *f {
                    RecordedValue::Ref(child) => child,
                    _ => None,
                }));
            }
        }
        let expected = oracle.encode(records.last().unwrap(), CheckpointKind::Full, &keep);
        let compacted = compact(&store_of(&records), &heap).unwrap();
        assert_eq!(compacted.records()[0].bytes(), &expected[..], "seed {seed}: compact");
        shed += usize::from(keep.contains(&false));

        // Without its base the chain may dangle: the same id is missing.
        if records.len() > 1 {
            dangled += usize::from(assert_restore_matches(&records[1..], registry, seed));
        }
    }
    // The seeds exercise both outcomes of each branch.
    assert!(dangled > 0 && dangled < 48, "{dangled} base-less chains dangled");
    assert!(shed > 0, "no compaction dropped garbage");
}
