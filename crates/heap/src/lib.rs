//! # ickp-heap — managed object heap substrate
//!
//! This crate reimplements, in safe Rust, the part of the Java runtime that
//! the checkpointing scheme of *Lawall & Muller, “Efficient Incremental
//! Checkpointing of Java Programs” (DSN 2000)* depends on:
//!
//! * a **class registry** with single inheritance and named, typed fields
//!   ([`ClassRegistry`], [`ClassDef`], [`FieldDef`]);
//! * an **object arena** ([`Heap`]) holding objects whose fields are typed
//!   [`Value`]s and are addressed by flat slot index (inherited fields
//!   first, as in a JVM object layout);
//! * per-object **checkpoint metadata** ([`CheckpointInfo`]): a unique
//!   stable identifier and a `modified` flag;
//! * a **write barrier**: every field store through [`Heap::set_field`]
//!   sets the object's `modified` flag, exactly like the
//!   `info.setModified()` calls that the paper's preprocessor inserts into
//!   every Java mutator.
//!
//! Checkpointing itself lives in `ickp-core` (generic, virtual-dispatch
//! driven) and `ickp-spec` (specialized plans); both operate on this heap.
//!
//! ## Example
//!
//! ```
//! use ickp_heap::{Heap, ClassRegistry, FieldType, Value};
//!
//! # fn main() -> Result<(), ickp_heap::HeapError> {
//! let mut registry = ClassRegistry::new();
//! let point = registry.define("Point", None, &[("x", FieldType::Int), ("y", FieldType::Int)])?;
//! let mut heap = Heap::new(registry);
//!
//! let p = heap.alloc(point)?;
//! let x = heap.class(point)?.slot_of("x")?;
//! heap.set_field(p, x, Value::Int(3))?;      // write barrier marks `p` modified
//! assert!(heap.is_modified(p)?);
//! heap.reset_modified(p)?;                   // done by the checkpointer
//! assert!(!heap.is_modified(p)?);
//! # Ok(()) }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod catalog;
mod class;
mod error;
mod gc;
mod graph;
mod heap;
mod ids;
mod snapshot;
mod value;

pub use catalog::{
    ApplyFn, DeclaredEffect, DirtyScope, MutationCatalog, MutationProbe, MutatorDecl,
    PUBLIC_MUTATORS,
};
pub use class::{ClassDef, ClassRegistry, FieldDef};
pub use error::HeapError;
pub use gc::GcStats;
pub use graph::{
    chunk_bounds, chunk_bounds_weighted, chunk_roots, chunk_roots_weighted, first_touch_plan,
    first_touch_plan_parallel, partition_roots, partition_roots_parallel, reachable_from,
    validate_acyclic, ReachError, ShardPlan,
};
pub use heap::{CheckpointInfo, Heap, HeapStats, Object, StructureEvent, STRUCTURE_LOG_CAPACITY};
pub use ids::{ClassId, ObjectId, StableId};
pub use snapshot::{HeapSnapshot, ObjectState};
pub use value::{FieldType, Value};
