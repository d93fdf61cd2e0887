//! The checkpoint wire format.
//!
//! This is the Rust analog of the paper's `DataOutputStream` composed with a
//! `ByteArrayOutputStream`: an append-only byte sink with fixed-width
//! big-endian primitive writers, plus [`scan`], the one validating reader
//! every consumer of the format goes through.
//!
//! ## Layout
//!
//! ```text
//! header  := magic "ICKP" | version:u16 | seq:u64 | kind:u8 | nroots:u32 | root_id:u64 *
//! record  := 0x01 | stable:u64 | class:u32 | nfields:u16 | field-bytes (per class layout)
//! footer  := 0xFF | nrecords:u32
//! ```
//!
//! Field encodings follow [`ickp_heap::FieldType::encoded_size`]: `int` 4B,
//! `long`/`double`/`ref` 8B, `boolean` 1B. A reference is the **stable id**
//! of the referent (0 encodes `null`; live stable ids start at 1), which is
//! what lets a sequence of incremental checkpoints be stitched back
//! together by identity.

use crate::error::CoreError;
use ickp_heap::{ClassDef, ClassId, ClassRegistry, FieldDef, FieldType, StableId};
use std::ops::Range;

/// Magic bytes opening every checkpoint stream.
pub const MAGIC: [u8; 4] = *b"ICKP";
/// Current stream format version.
pub const VERSION: u16 = 1;

const TAG_OBJECT: u8 = 0x01;
const TAG_END: u8 = 0xFF;

/// Bytes of the per-record stream header written by
/// [`StreamWriter::begin_object`]: tag (1), stable id (8), class id (4),
/// field count (2). Static byte estimators — the shard-imbalance lint in
/// `ickp-audit`, the byte-weighted shard balancer
/// ([`ickp_heap::ShardPlan::root_weights`] as invoked by the parallel
/// engine) — add this to each class's encoded state size to predict a
/// record's exact stream footprint.
pub const RECORD_HEADER_BYTES: usize = 1 + 8 + 4 + 2;

/// Bytes of the stream header before its root table: magic (4), version
/// (2), seq (8), kind (1), root count (4).
const HEADER_FIXED_BYTES: usize = 4 + 2 + 8 + 1 + 4;

/// Whether a checkpoint records everything or only modified objects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CheckpointKind {
    /// Every reachable object was recorded.
    Full,
    /// Only objects whose modified flag was set were recorded.
    Incremental,
}

impl CheckpointKind {
    fn to_byte(self) -> u8 {
        match self {
            CheckpointKind::Full => 0,
            CheckpointKind::Incremental => 1,
        }
    }

    fn from_byte(b: u8, offset: usize) -> Result<CheckpointKind, CoreError> {
        match b {
            0 => Ok(CheckpointKind::Full),
            1 => Ok(CheckpointKind::Incremental),
            other => Err(CoreError::Decode {
                offset,
                what: format!("invalid checkpoint kind byte {other}"),
            }),
        }
    }
}

/// Append-only encoder for one checkpoint.
///
/// The writer is deliberately minimal — fixed-width appends into a byte
/// vector — because its cost is part of what the paper measures as
/// "recording the local state".
#[derive(Debug)]
pub struct StreamWriter {
    buf: Vec<u8>,
    records: u32,
    finished: bool,
}

impl StreamWriter {
    /// Starts a checkpoint stream with its header.
    pub fn new(seq: u64, kind: CheckpointKind, roots: &[StableId]) -> StreamWriter {
        StreamWriter::with_buffer(Vec::with_capacity(64), seq, kind, roots)
    }

    /// Starts a checkpoint stream reusing an existing allocation, e.g. a
    /// buffer recycled through a [`BufferPool`](crate::BufferPool). The
    /// buffer is cleared (capacity retained) and then written exactly like
    /// [`StreamWriter::new`], so the resulting stream is byte-identical to
    /// a freshly allocated one.
    pub fn with_buffer(
        mut buf: Vec<u8>,
        seq: u64,
        kind: CheckpointKind,
        roots: &[StableId],
    ) -> StreamWriter {
        buf.clear();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&VERSION.to_be_bytes());
        buf.extend_from_slice(&seq.to_be_bytes());
        buf.push(kind.to_byte());
        buf.extend_from_slice(&(roots.len() as u32).to_be_bytes());
        for r in roots {
            buf.extend_from_slice(&r.raw().to_be_bytes());
        }
        StreamWriter { buf, records: 0, finished: false }
    }

    /// Opens an object record: stable id, class, declared field count.
    /// The caller then writes exactly the fields of the class layout.
    pub fn begin_object(&mut self, stable: StableId, class: ClassId, nfields: usize) {
        debug_assert!(!self.finished, "write after finish");
        self.buf.push(TAG_OBJECT);
        self.buf.extend_from_slice(&stable.raw().to_be_bytes());
        self.buf.extend_from_slice(&(class.index() as u32).to_be_bytes());
        self.buf.extend_from_slice(&(nfields as u16).to_be_bytes());
        self.records += 1;
    }

    /// Writes a 32-bit integer field.
    #[inline]
    pub fn write_int(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Writes a 64-bit integer field.
    #[inline]
    pub fn write_long(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Writes a double field (bit pattern).
    #[inline]
    pub fn write_double(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_be_bytes());
    }

    /// Writes a boolean field.
    #[inline]
    pub fn write_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Writes a reference field as the referent's stable id (`None` = null).
    #[inline]
    pub fn write_ref(&mut self, v: Option<StableId>) {
        let raw = v.map_or(0, StableId::raw);
        self.buf.extend_from_slice(&raw.to_be_bytes());
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` if only the header has been written and it was empty-rooted.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Number of object records opened so far.
    pub fn record_count(&self) -> u32 {
        self.records
    }

    /// Closes the stream with its footer and returns the bytes.
    pub fn finish(mut self) -> Vec<u8> {
        self.buf.push(TAG_END);
        self.buf.extend_from_slice(&self.records.to_be_bytes());
        self.finished = true;
        self.buf
    }

    /// Starts a *shard body*: a headerless record sequence produced by one
    /// worker of the parallel checkpointer. The records are byte-compatible
    /// with the main stream, so a merging writer can splice them in with
    /// [`StreamWriter::append_shard`] and the result is indistinguishable
    /// from a sequentially written stream.
    ///
    /// A shard writer must be closed with [`StreamWriter::finish_shard`]
    /// (never [`StreamWriter::finish`] — a bare body has no header for the
    /// footer to terminate).
    ///
    /// The body is written into `buf`, cleared first with its capacity
    /// kept: the parallel engine hands each shard the buffer its last body
    /// used, so a body that grew to megabytes does not grow again from
    /// nothing.
    ///
    /// # Example
    ///
    /// ```
    /// use ickp_core::{decode, CheckpointKind, StreamWriter};
    /// use ickp_heap::{ClassRegistry, FieldType, StableId};
    ///
    /// let mut reg = ClassRegistry::new();
    /// let leaf = reg.define("Leaf", None, &[("v", FieldType::Int)]).unwrap();
    ///
    /// let mut shard = StreamWriter::new_shard(Vec::new());
    /// shard.begin_object(StableId(1), leaf, 1);
    /// shard.write_int(7);
    /// let (body, records) = shard.finish_shard();
    ///
    /// let mut merged = StreamWriter::new(0, CheckpointKind::Full, &[]);
    /// merged.append_shard(&body, records);
    /// let decoded = decode(&merged.finish(), &reg).unwrap();
    /// assert_eq!(decoded.objects.len(), 1);
    /// ```
    pub fn new_shard(mut buf: Vec<u8>) -> StreamWriter {
        buf.clear();
        StreamWriter { buf, records: 0, finished: false }
    }

    /// Closes a shard body, returning its raw record bytes and record
    /// count. No footer is appended; the merging stream accounts for the
    /// records via [`StreamWriter::append_shard`].
    pub fn finish_shard(mut self) -> (Vec<u8>, u32) {
        self.finished = true;
        (self.buf, self.records)
    }

    /// Splices a finished shard body into this stream, as if its records
    /// had been written here directly. `records` must be the count returned
    /// by [`StreamWriter::finish_shard`] alongside `body`; it flows into
    /// this stream's footer.
    pub fn append_shard(&mut self, body: &[u8], records: u32) {
        debug_assert!(!self.finished, "write after finish");
        self.buf.extend_from_slice(body);
        self.records += records;
    }
}

/// A field value as recorded in a checkpoint: like
/// [`ickp_heap::Value`] but with references abstracted to stable ids.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RecordedValue {
    /// 32-bit integer.
    Int(i32),
    /// 64-bit integer.
    Long(i64),
    /// Double.
    Double(f64),
    /// Boolean.
    Bool(bool),
    /// Reference by stable id (`None` = null).
    Ref(Option<StableId>),
}

/// One decoded object record.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordedObject {
    /// Stable identity of the recorded object.
    pub stable: StableId,
    /// Class (valid for the registry used to decode).
    pub class: ClassId,
    /// Field values in layout order.
    pub fields: Vec<RecordedValue>,
}

/// A fully decoded checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedCheckpoint {
    /// Sequence number within the run.
    pub seq: u64,
    /// Full or incremental.
    pub kind: CheckpointKind,
    /// Stable ids of the checkpoint roots.
    pub roots: Vec<StableId>,
    /// Recorded objects, in record order.
    pub objects: Vec<RecordedObject>,
}

/// The byte geography of one encoded checkpoint stream: where the
/// header ends and where each object record begins and ends.
///
/// This is what content-hash deduplication in `ickp-durable` chunks on:
/// the header (which embeds the sequence number and so never repeats)
/// and the footer stay literal, while each object record — whose bytes
/// are a pure function of the object's identity, class, and field
/// values — is a dedup candidate that recurs byte-identically whenever
/// the same object state is recorded again.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamLayout {
    /// Bytes of the stream header (magic through the root table).
    pub header_len: usize,
    /// Byte range of each object record (tag byte through its last
    /// field), in stream order.
    pub objects: Vec<std::ops::Range<usize>>,
}

/// Returns the [`StreamLayout`] of an encoded checkpoint stream without
/// materializing any field values: a thin wrapper over [`scan`].
///
/// The ranges tile the stream exactly: header, then the object ranges
/// back-to-back, then the footer.
///
/// # Errors
///
/// Fails like [`scan`].
pub fn object_slices(bytes: &[u8], registry: &ClassRegistry) -> Result<StreamLayout, CoreError> {
    let mut objects = Vec::new();
    let header = scan(bytes, registry, |_, _, fields| {
        objects.push(fields.start - RECORD_HEADER_BYTES..fields.end);
    })?;
    Ok(StreamLayout { header_len: HEADER_FIXED_BYTES + 8 * header.roots.len(), objects })
}

/// Decodes one checkpoint stream against the class registry it was
/// produced with, materializing every field value: a thin wrapper over
/// [`scan`].
///
/// # Errors
///
/// Fails like [`scan`].
pub fn decode(bytes: &[u8], registry: &ClassRegistry) -> Result<DecodedCheckpoint, CoreError> {
    let mut objects = Vec::new();
    let StreamHeader { seq, kind, roots } = scan(bytes, registry, |stable, class, fields| {
        let layout = registry.class(class).expect("scan validated the class").layout();
        objects.push(RecordedObject {
            stable,
            class,
            fields: read_fields(bytes, fields.start, layout).collect(),
        });
    })?;
    Ok(DecodedCheckpoint { seq, kind, roots, objects })
}

/// The header of one checkpoint stream, as [`scan`] reads it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamHeader {
    /// Sequence number within the run.
    pub seq: u64,
    /// Full or incremental.
    pub kind: CheckpointKind,
    /// Stable ids of the checkpoint roots.
    pub roots: Vec<StableId>,
}

/// Validates one checkpoint stream against `registry` in a single pass,
/// reporting each object record to `on_object` as its stable id, class
/// and the byte range of its field bytes — without materializing any
/// field value and without allocating per object.
///
/// This is the format's one validator: [`decode`] and [`object_slices`]
/// are thin wrappers over it, and recovery (restore, the durable store's
/// `open`, a follower's apply) calls it directly. It checks the magic,
/// version, kind byte and root table, every record tag, every class
/// against the registry, every field count against its class layout,
/// every boolean byte (0 or 1), and the footer's record count, and it
/// rejects trailing bytes. `on_object` may run for records before a
/// later one fails validation; callers that act on objects must discard
/// that work on error.
///
/// # Errors
///
/// [`CoreError::Decode`] for malformed bytes,
/// [`CoreError::UnknownClassIndex`] for class ids outside the registry,
/// and [`CoreError::FieldCountMismatch`] if a record disagrees with its
/// class layout.
///
/// # Example
///
/// ```
/// use ickp_core::{scan, CheckpointKind, StreamWriter};
/// use ickp_heap::{ClassRegistry, FieldType, StableId};
///
/// let mut reg = ClassRegistry::new();
/// let leaf = reg.define("Leaf", None, &[("v", FieldType::Int)]).unwrap();
/// let mut w = StreamWriter::new(4, CheckpointKind::Full, &[StableId(1)]);
/// w.begin_object(StableId(1), leaf, 1);
/// w.write_int(7);
/// let bytes = w.finish();
///
/// let mut seen = Vec::new();
/// let header = scan(&bytes, &reg, |stable, _, fields| seen.push((stable, fields))).unwrap();
/// assert_eq!((header.seq, header.roots.len()), (4, 1));
/// let (stable, fields) = seen[0].clone();
/// assert_eq!(stable, StableId(1));
/// assert_eq!(&bytes[fields], &7i32.to_be_bytes());
/// ```
pub fn scan(
    bytes: &[u8],
    registry: &ClassRegistry,
    mut on_object: impl FnMut(StableId, ClassId, Range<usize>),
) -> Result<StreamHeader, CoreError> {
    let mut c = Cursor { bytes, pos: 0 };
    if c.take(4)? != MAGIC {
        return Err(CoreError::Decode { offset: 0, what: "bad magic".into() });
    }
    let version = c.u16()?;
    if version != VERSION {
        return Err(CoreError::Decode {
            offset: 4,
            what: format!("unsupported version {version}"),
        });
    }
    let seq = c.u64()?;
    let kind_off = c.pos;
    let kind = CheckpointKind::from_byte(c.u8()?, kind_off)?;
    let nroots = c.u32()? as usize;
    // The count is untrusted: reserve no more roots than the bytes left
    // could hold.
    let mut roots = Vec::with_capacity(nroots.min((bytes.len() - c.pos) / 8));
    for _ in 0..nroots {
        roots.push(StableId(c.u64()?));
    }
    let shapes: Vec<Shape> = registry.iter().map(Shape::of).collect();
    let mut records = 0usize;
    loop {
        let tag_off = c.pos;
        match c.u8()? {
            TAG_OBJECT => {
                let stable = StableId(c.u64()?);
                let class_index = c.u32()?;
                let shape = *shapes
                    .get(class_index as usize)
                    .ok_or(CoreError::UnknownClassIndex(class_index))?;
                let class = ClassId::from_index(class_index as usize);
                let nfields = c.u16()? as usize;
                let def = || registry.class(class).expect("every shape has a class");
                if nfields != shape.slots {
                    return Err(CoreError::FieldCountMismatch {
                        class: def().name().to_string(),
                        recorded: nfields,
                        expected: shape.slots,
                    });
                }
                let at = c.pos;
                if shape.bools || bytes.len() - at < shape.size {
                    check_fields(bytes, at, def().layout())?;
                }
                c.pos = at + shape.size;
                records += 1;
                on_object(stable, class, at..c.pos);
            }
            TAG_END => {
                let declared = c.u32()? as usize;
                if declared != records {
                    return Err(CoreError::Decode {
                        offset: tag_off,
                        what: format!("footer declares {declared} records, stream has {records}"),
                    });
                }
                if c.pos != bytes.len() {
                    return Err(CoreError::Decode {
                        offset: c.pos,
                        what: "trailing bytes after footer".into(),
                    });
                }
                return Ok(StreamHeader { seq, kind, roots });
            }
            other => {
                return Err(CoreError::Decode {
                    offset: tag_off,
                    what: format!("invalid record tag {other:#x}"),
                })
            }
        }
    }
}

/// What [`scan`] needs of one class: its field count, the encoded size
/// of its fields, and whether any of them is a boolean (whose byte must
/// be checked).
#[derive(Clone, Copy)]
struct Shape {
    slots: usize,
    size: usize,
    bools: bool,
}

impl Shape {
    fn of(def: &ClassDef) -> Shape {
        Shape {
            slots: def.num_slots(),
            size: def.encoded_state_size(),
            bools: def.layout().iter().any(|f| f.ty() == FieldType::Bool),
        }
    }
}

/// Walks the field bytes at `at` field by field, as a value-by-value
/// reader would: the first field that runs past the end, or the first
/// boolean byte that is neither 0 nor 1, is the error.
fn check_fields(bytes: &[u8], mut at: usize, layout: &[FieldDef]) -> Result<(), CoreError> {
    for f in layout {
        let n = f.ty().encoded_size();
        if at + n > bytes.len() {
            return Err(truncated(at, n));
        }
        if f.ty() == FieldType::Bool && bytes[at] > 1 {
            return Err(CoreError::Decode {
                offset: at,
                what: format!("invalid boolean byte {}", bytes[at]),
            });
        }
        at += n;
    }
    Ok(())
}

fn truncated(offset: usize, wanted: usize) -> CoreError {
    CoreError::Decode { offset, what: format!("unexpected end of stream (wanted {wanted} bytes)") }
}

/// Reads the field values of one record whose field bytes start at `at`
/// and follow `layout`. The bytes must have passed [`scan`].
pub(crate) fn read_fields<'a>(
    bytes: &'a [u8],
    mut at: usize,
    layout: &'a [FieldDef],
) -> impl Iterator<Item = RecordedValue> + 'a {
    layout.iter().map(move |f| {
        let word = |n: usize| {
            let mut be = [0u8; 8];
            be[8 - n..].copy_from_slice(&bytes[at..at + n]);
            u64::from_be_bytes(be)
        };
        let value = match f.ty() {
            FieldType::Int => RecordedValue::Int(word(4) as u32 as i32),
            FieldType::Long => RecordedValue::Long(word(8) as i64),
            FieldType::Double => RecordedValue::Double(f64::from_bits(word(8))),
            FieldType::Bool => RecordedValue::Bool(bytes[at] == 1),
            FieldType::Ref(_) => {
                RecordedValue::Ref(Some(word(8)).filter(|&raw| raw != 0).map(StableId))
            }
        };
        at += f.ty().encoded_size();
        value
    })
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CoreError> {
        if self.pos + n > self.bytes.len() {
            return Err(truncated(self.pos, n));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CoreError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, CoreError> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().expect("length checked")))
    }

    fn u32(&mut self) -> Result<u32, CoreError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().expect("length checked")))
    }

    fn u64(&mut self) -> Result<u64, CoreError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().expect("length checked")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ickp_heap::ClassRegistry;

    fn registry() -> (ClassRegistry, ClassId) {
        let mut reg = ClassRegistry::new();
        let node = reg
            .define(
                "Node",
                None,
                &[
                    ("v", FieldType::Int),
                    ("w", FieldType::Long),
                    ("x", FieldType::Double),
                    ("b", FieldType::Bool),
                    ("next", FieldType::Ref(None)),
                ],
            )
            .unwrap();
        (reg, node)
    }

    fn sample_stream(node: ClassId) -> Vec<u8> {
        let mut w = StreamWriter::new(3, CheckpointKind::Incremental, &[StableId(1)]);
        w.begin_object(StableId(1), node, 5);
        w.write_int(-7);
        w.write_long(1 << 40);
        w.write_double(2.5);
        w.write_bool(true);
        w.write_ref(Some(StableId(2)));
        w.begin_object(StableId(2), node, 5);
        w.write_int(0);
        w.write_long(0);
        w.write_double(f64::NAN);
        w.write_bool(false);
        w.write_ref(None);
        w.finish()
    }

    /// The value-by-value decoder `decode` was before it became a wrapper
    /// over [`scan`], kept as the differential oracle for the one
    /// validator.
    fn reference_decode(
        bytes: &[u8],
        registry: &ClassRegistry,
    ) -> Result<DecodedCheckpoint, CoreError> {
        let decode_err = |offset, what: String| CoreError::Decode { offset, what };
        let mut c = Cursor { bytes, pos: 0 };
        if c.take(4)? != MAGIC {
            return Err(decode_err(0, "bad magic".into()));
        }
        let version = c.u16()?;
        if version != VERSION {
            return Err(decode_err(4, format!("unsupported version {version}")));
        }
        let seq = c.u64()?;
        let kind = CheckpointKind::from_byte(c.u8()?, 14)?;
        let nroots = c.u32()? as usize;
        let mut roots = Vec::new();
        for _ in 0..nroots {
            roots.push(StableId(c.u64()?));
        }
        let mut objects = Vec::new();
        loop {
            let tag_off = c.pos;
            match c.u8()? {
                TAG_OBJECT => {
                    let stable = StableId(c.u64()?);
                    let class_index = c.u32()?;
                    let class = ClassId::from_index(class_index as usize);
                    let def = registry
                        .class(class)
                        .map_err(|_| CoreError::UnknownClassIndex(class_index))?;
                    let nfields = c.u16()? as usize;
                    if nfields != def.num_slots() {
                        return Err(CoreError::FieldCountMismatch {
                            class: def.name().to_string(),
                            recorded: nfields,
                            expected: def.num_slots(),
                        });
                    }
                    let mut fields = Vec::new();
                    for f in def.layout() {
                        let off = c.pos;
                        fields.push(match f.ty() {
                            FieldType::Int => RecordedValue::Int(c.u32()? as i32),
                            FieldType::Long => RecordedValue::Long(c.u64()? as i64),
                            FieldType::Double => RecordedValue::Double(f64::from_bits(c.u64()?)),
                            FieldType::Bool => match c.u8()? {
                                0 => RecordedValue::Bool(false),
                                1 => RecordedValue::Bool(true),
                                b => {
                                    return Err(decode_err(
                                        off,
                                        format!("invalid boolean byte {b}"),
                                    ))
                                }
                            },
                            FieldType::Ref(_) => {
                                RecordedValue::Ref(Some(c.u64()?).filter(|&r| r != 0).map(StableId))
                            }
                        });
                    }
                    objects.push(RecordedObject { stable, class, fields });
                }
                TAG_END => {
                    let declared = c.u32()? as usize;
                    if declared != objects.len() {
                        let what = format!(
                            "footer declares {declared} records, stream has {}",
                            objects.len()
                        );
                        return Err(decode_err(tag_off, what));
                    }
                    if c.pos != bytes.len() {
                        return Err(decode_err(c.pos, "trailing bytes after footer".into()));
                    }
                    return Ok(DecodedCheckpoint { seq, kind, roots, objects });
                }
                other => return Err(decode_err(tag_off, format!("invalid record tag {other:#x}"))),
            }
        }
    }

    /// A decoded checkpoint with doubles compared by bit pattern (the
    /// sample stream records a NaN).
    fn by_bits(d: &DecodedCheckpoint) -> impl PartialEq + std::fmt::Debug {
        let value = |v: &RecordedValue| match *v {
            RecordedValue::Double(x) => RecordedValue::Long(x.to_bits() as i64),
            other => other,
        };
        let objects: Vec<_> = d
            .objects
            .iter()
            .map(|o| (o.stable, o.class, o.fields.iter().map(value).collect::<Vec<_>>()))
            .collect();
        (d.seq, d.kind, d.roots.clone(), objects)
    }

    #[test]
    fn scan_and_decode_agree_on_every_hostile_variant_of_a_valid_stream() {
        use crate::checkpoint::CheckpointRecord;
        use crate::fold::merge_records;
        use crate::restore::{restore, RestorePolicy};
        use crate::stats::TraversalStats;
        use crate::store::CheckpointStore;

        let (reg, node) = registry();
        let good = sample_stream(node);
        let mut cases: Vec<Vec<u8>> = Vec::new();
        for i in 0..good.len() {
            for mask in [0x01, 0x80, 0xff] {
                let mut bytes = good.clone();
                bytes[i] ^= mask;
                cases.push(bytes);
            }
        }
        cases.extend((0..good.len()).map(|cut| good[..cut].to_vec()));
        // Inflated counts: the root table (bytes 15..19) and the footer.
        let mut roots = good.clone();
        roots[15..19].copy_from_slice(&u32::MAX.to_be_bytes());
        let mut footer = good.clone();
        let n = footer.len();
        footer[n - 4..].copy_from_slice(&u32::MAX.to_be_bytes());
        cases.extend([roots, footer, good.clone()]);

        let mut rejected = 0;
        for (i, bytes) in cases.iter().enumerate() {
            let reference = reference_decode(bytes, &reg);
            let decoded = decode(bytes, &reg);
            let mut seen = Vec::new();
            let scanned = scan(bytes, &reg, |stable, class, fields| {
                seen.push((stable, class, fields));
            });
            let sliced = object_slices(bytes, &reg);
            match (&reference, &decoded) {
                (Ok(r), Ok(d)) => {
                    assert_eq!(by_bits(r), by_bits(d), "case {i}");
                    let header = scanned.unwrap();
                    assert_eq!((header.seq, header.kind, &header.roots), (d.seq, d.kind, &d.roots));
                    let objects: Vec<_> = seen.iter().map(|(s, c, _)| (*s, *c)).collect();
                    let expected: Vec<_> = d.objects.iter().map(|o| (o.stable, o.class)).collect();
                    assert_eq!(objects, expected, "case {i}");
                    let ranges: Vec<_> =
                        seen.iter().map(|(_, _, f)| f.start - RECORD_HEADER_BYTES..f.end).collect();
                    assert_eq!(sliced.unwrap().objects, ranges, "case {i}");
                }
                (Err(r), Err(d)) => {
                    // One validator: the same error, offset and all.
                    assert_eq!(r, d, "case {i}");
                    assert_eq!(&scanned.unwrap_err(), d, "case {i}");
                    assert_eq!(&sliced.unwrap_err(), d, "case {i}");
                    // And restore or merge over a chain holding it
                    // report it, typed.
                    let record = CheckpointRecord::from_parts(
                        0,
                        CheckpointKind::Full,
                        Vec::new(),
                        bytes.clone(),
                        TraversalStats::default(),
                    );
                    let mut store = CheckpointStore::new();
                    store.push(record.clone()).unwrap();
                    assert_eq!(&restore(&store, &reg, RestorePolicy::Lenient).unwrap_err(), d);
                    assert_eq!(&merge_records(&[record], &reg).unwrap_err(), d);
                    rejected += 1;
                }
                _ => panic!("case {i}: reference {reference:?}, decode {decoded:?}"),
            }
        }
        // Every truncation and both inflated counts are among them.
        assert!(rejected > good.len() + 2, "only {rejected} of {} cases rejected", cases.len());
    }

    #[test]
    fn round_trip_preserves_everything() {
        let (reg, node) = registry();
        let bytes = sample_stream(node);
        let d = decode(&bytes, &reg).unwrap();
        assert_eq!(d.seq, 3);
        assert_eq!(d.kind, CheckpointKind::Incremental);
        assert_eq!(d.roots, vec![StableId(1)]);
        assert_eq!(d.objects.len(), 2);
        let first = &d.objects[0];
        assert_eq!(first.stable, StableId(1));
        assert_eq!(first.class, node);
        assert_eq!(first.fields[0], RecordedValue::Int(-7));
        assert_eq!(first.fields[1], RecordedValue::Long(1 << 40));
        assert_eq!(first.fields[2], RecordedValue::Double(2.5));
        assert_eq!(first.fields[3], RecordedValue::Bool(true));
        assert_eq!(first.fields[4], RecordedValue::Ref(Some(StableId(2))));
        match d.objects[1].fields[2] {
            RecordedValue::Double(x) => assert!(x.is_nan()),
            ref other => panic!("expected double, got {other:?}"),
        }
        assert_eq!(d.objects[1].fields[4], RecordedValue::Ref(None));
    }

    #[test]
    fn empty_checkpoint_round_trips() {
        let (reg, _) = registry();
        let w = StreamWriter::new(0, CheckpointKind::Full, &[]);
        let bytes = w.finish();
        let d = decode(&bytes, &reg).unwrap();
        assert_eq!(d.kind, CheckpointKind::Full);
        assert!(d.roots.is_empty());
        assert!(d.objects.is_empty());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let (reg, node) = registry();
        let mut bytes = sample_stream(node);
        bytes[0] = b'X';
        let err = decode(&bytes, &reg).unwrap_err();
        assert!(matches!(err, CoreError::Decode { offset: 0, .. }));
    }

    #[test]
    fn truncated_stream_is_rejected() {
        let (reg, node) = registry();
        let bytes = sample_stream(node);
        for cut in [3, 10, 20, bytes.len() - 1] {
            assert!(decode(&bytes[..cut], &reg).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn unknown_class_index_is_rejected() {
        let (reg, _) = registry();
        let mut w = StreamWriter::new(0, CheckpointKind::Full, &[]);
        w.begin_object(StableId(1), ClassId::from_index(42), 0);
        let bytes = w.finish();
        assert_eq!(decode(&bytes, &reg).unwrap_err(), CoreError::UnknownClassIndex(42));
    }

    #[test]
    fn field_count_mismatch_is_rejected() {
        let (reg, node) = registry();
        let mut w = StreamWriter::new(0, CheckpointKind::Full, &[]);
        w.begin_object(StableId(1), node, 2); // layout has 5
        w.write_int(0);
        w.write_long(0);
        let bytes = w.finish();
        assert!(matches!(decode(&bytes, &reg).unwrap_err(), CoreError::FieldCountMismatch { .. }));
    }

    #[test]
    fn footer_count_mismatch_is_rejected() {
        let (reg, node) = registry();
        let mut bytes = sample_stream(node);
        let n = bytes.len();
        bytes[n - 1] = 9; // corrupt declared record count
        assert!(decode(&bytes, &reg).is_err());
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let (reg, node) = registry();
        let mut bytes = sample_stream(node);
        bytes.push(0);
        assert!(decode(&bytes, &reg).is_err());
    }

    #[test]
    fn invalid_bool_byte_is_rejected() {
        let mut reg = ClassRegistry::new();
        let c = reg.define("B", None, &[("b", FieldType::Bool)]).unwrap();
        let mut w = StreamWriter::new(0, CheckpointKind::Full, &[]);
        w.begin_object(StableId(1), c, 1);
        w.buf.push(7); // invalid boolean encoding
        let bytes = w.finish();
        assert!(decode(&bytes, &reg).is_err());
    }

    #[test]
    fn writer_tracks_length_and_record_count() {
        let (_, node) = registry();
        let mut w = StreamWriter::new(0, CheckpointKind::Full, &[]);
        let header = w.len();
        assert!(header > 0);
        assert!(!w.is_empty());
        w.begin_object(StableId(1), node, 0);
        assert_eq!(w.record_count(), 1);
        assert!(w.len() > header);
    }

    #[test]
    fn shard_merge_is_byte_identical_to_sequential_writing() {
        let (reg, node) = registry();

        // Sequential reference: both objects written into one stream.
        let sequential = sample_stream(node);

        // Sharded: the same two records written by two independent shard
        // writers, spliced in shard order.
        let mut shard0 = StreamWriter::new_shard(Vec::new());
        shard0.begin_object(StableId(1), node, 5);
        shard0.write_int(-7);
        shard0.write_long(1 << 40);
        shard0.write_double(2.5);
        shard0.write_bool(true);
        shard0.write_ref(Some(StableId(2)));
        let mut shard1 = StreamWriter::new_shard(Vec::new());
        shard1.begin_object(StableId(2), node, 5);
        shard1.write_int(0);
        shard1.write_long(0);
        shard1.write_double(f64::NAN);
        shard1.write_bool(false);
        shard1.write_ref(None);

        let mut merged = StreamWriter::new(3, CheckpointKind::Incremental, &[StableId(1)]);
        for shard in [shard0, shard1] {
            let (body, records) = shard.finish_shard();
            merged.append_shard(&body, records);
        }
        assert_eq!(merged.record_count(), 2);
        assert_eq!(merged.finish(), sequential);
        let _ = reg;
    }

    #[test]
    fn empty_shards_merge_to_an_empty_stream() {
        let (reg, _) = registry();
        let mut merged = StreamWriter::new(0, CheckpointKind::Full, &[]);
        let (body, records) = StreamWriter::new_shard(Vec::new()).finish_shard();
        assert!(body.is_empty());
        assert_eq!(records, 0);
        merged.append_shard(&body, records);
        let d = decode(&merged.finish(), &reg).unwrap();
        assert!(d.objects.is_empty());
    }

    #[test]
    fn object_slices_tile_the_stream_exactly() {
        let (reg, node) = registry();
        let bytes = sample_stream(node);
        let layout = object_slices(&bytes, &reg).unwrap();
        assert_eq!(layout.objects.len(), 2);
        // Header, objects, footer tile the stream back-to-back.
        assert_eq!(layout.objects[0].start, layout.header_len);
        assert_eq!(layout.objects[1].start, layout.objects[0].end);
        assert_eq!(layout.objects[1].end, bytes.len() - 5); // footer = tag + u32
                                                            // Each slice decodes as the bytes of exactly that object: slicing
                                                            // the same object's state out of a re-recorded stream is
                                                            // byte-identical (the dedup premise).
        let again = object_slices(&sample_stream(node), &reg).unwrap();
        for (a, b) in layout.objects.iter().zip(&again.objects) {
            assert_eq!(&bytes[a.clone()], &sample_stream(node)[b.clone()]);
        }
    }

    #[test]
    fn object_slices_reject_malformed_streams() {
        let (reg, node) = registry();
        let bytes = sample_stream(node);
        for cut in [3, 10, 20, bytes.len() - 1] {
            assert!(object_slices(&bytes[..cut], &reg).is_err(), "cut at {cut}");
        }
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(object_slices(&bad, &reg).is_err());
        let mut w = StreamWriter::new(0, CheckpointKind::Full, &[]);
        w.begin_object(StableId(1), ClassId::from_index(42), 0);
        assert_eq!(object_slices(&w.finish(), &reg).unwrap_err(), CoreError::UnknownClassIndex(42));
    }

    #[test]
    fn wrong_version_is_rejected() {
        let (reg, _) = registry();
        let w = StreamWriter::new(0, CheckpointKind::Full, &[]);
        let mut bytes = w.finish();
        bytes[5] = 99; // version low byte
        assert!(decode(&bytes, &reg).is_err());
    }

    #[test]
    fn invalid_kind_byte_is_rejected() {
        let (reg, _) = registry();
        let w = StreamWriter::new(0, CheckpointKind::Full, &[]);
        let mut bytes = w.finish();
        bytes[14] = 9; // kind byte (4 magic + 2 version + 8 seq)
        assert!(decode(&bytes, &reg).is_err());
    }
}
