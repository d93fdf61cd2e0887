//! # ickp-core — generic language-level checkpointing
//!
//! The faithful, *unspecialized* implementation of the checkpointing scheme
//! of Lawall & Muller (DSN 2000), §2: every class gets systematically
//! derived `record`/`fold` methods ([`MethodTable`]), and a generic driver
//! ([`Checkpointer`]) traverses compound structures testing per-object
//! modified flags, recording modified objects into a binary stream
//! ([`StreamWriter`]), and resetting the flags.
//!
//! Checkpoints accumulate in a [`CheckpointStore`]; [`restore`] rebuilds
//! the program state from the base-plus-increments sequence and
//! [`verify_restore`] proves the rebuild exact.
//!
//! [`Checkpointer::checkpoint_parallel`] is the parallel sharded engine:
//! the same traversal spread over worker threads via a root-set partition,
//! producing byte-identical checkpoints (see the `parallel` module docs).
//!
//! The deliberate inefficiencies of this crate — one dynamic dispatch per
//! object per method, a flag test per object, a full traversal even when
//! nothing changed — are the paper's motivation; `ickp-spec` removes them
//! by specialization.
//!
//! ## Example
//!
//! ```
//! use ickp_heap::{ClassRegistry, FieldType, Heap, Value};
//! use ickp_core::{
//!     restore, verify_restore, CheckpointConfig, CheckpointStore, Checkpointer, MethodTable,
//!     RestorePolicy,
//! };
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut reg = ClassRegistry::new();
//! let node = reg.define("Node", None, &[("v", FieldType::Int), ("next", FieldType::Ref(None))])?;
//! let mut heap = Heap::new(reg);
//! let tail = heap.alloc(node)?;
//! let head = heap.alloc(node)?;
//! heap.set_field(head, 1, Value::Ref(Some(tail)))?;
//!
//! let table = MethodTable::derive(heap.registry());
//! let mut ckp = Checkpointer::new(CheckpointConfig::incremental());
//! let mut store = CheckpointStore::new();
//!
//! store.push(ckp.checkpoint(&mut heap, &table, &[head])?)?;   // records both (fresh)
//! heap.set_field(tail, 0, Value::Int(9))?;                    // barrier marks tail
//! store.push(ckp.checkpoint(&mut heap, &table, &[head])?)?;   // records only tail
//!
//! let rebuilt = restore(&store, heap.registry(), RestorePolicy::Lenient)?;
//! assert_eq!(verify_restore(&heap, &[head], &rebuilt)?, None); // states identical
//! # Ok(()) }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checkpoint;
mod digest;
mod error;
mod fold;
mod journal;
mod kernel;
mod methods;
mod parallel;
mod pool;
mod restore;
mod sink;
mod stats;
mod store;
mod stream;

pub use checkpoint::{CheckpointConfig, CheckpointRecord, Checkpointer, ShardBalance};
pub use digest::state_digest;
pub use error::CoreError;
pub use fold::{compact, merge_records};
pub use journal::journal_dirty_set;
pub use kernel::{Direct, Dispatch, Emit, WalkScratch};
pub use methods::{FoldFn, MethodTable, RecordFn};
pub use parallel::{
    plan_shards, refresh_plan, ParallelPhases, PlanSource, ShardAccess, ShardTrace,
};
pub use pool::BufferPool;
pub use restore::{restore, verify_restore, RestorePolicy, RestoredHeap};
pub use sink::{AckHook, RecordSink};
pub use stats::TraversalStats;
pub use store::CheckpointStore;
pub use stream::{
    decode, object_slices, scan, CheckpointKind, DecodedCheckpoint, RecordedObject, RecordedValue,
    StreamHeader, StreamLayout, StreamWriter, MAGIC, RECORD_HEADER_BYTES, VERSION,
};
