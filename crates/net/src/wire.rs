//! `net::wire` — the compressed columnar wire format for inter-engine
//! dataflow edges.
//!
//! Every edge (implicit pipeline, explicit materialization, mediator
//! fragment fetch, final result) serializes its relation into one
//! [`Encoded`] block: per column a variant tag, a codec tag, and a
//! self-contained payload. Codec *state* (dictionaries, frame-of-reference
//! minima, run lengths) is computed over the whole edge — never per
//! transport chunk — so the encoded byte count that feeds the ledger and
//! the simulated transfer-time model is invariant under the transport
//! chunk size. Transport chunking only changes the granularity at
//! which [`StreamDecoder::take`] is driven (and the quarantined
//! `net.chunks` metric).
//!
//! Codecs:
//! - `dict` — first-appearance dictionary plus bit-packed indices (`Str`);
//! - `forpack` — frame-of-reference minimum plus bit-packed deltas
//!   (`Int`, `Date`);
//! - `rle` — run-length encoded values (`Bool`); the null bitmap of every
//!   typed column is run-length encoded the same way;
//! - `raw` — the fallback: `Float` bit patterns, tagged `Mixed` values,
//!   and any column where the candidate codec does not beat raw.
//!
//! Selection is deterministic: size the candidate and the raw body
//! exactly (a cheap pass that materializes neither), keep the smaller
//! (the candidate wins ties), and only then emit the winner's payload.
//! Decoding rebuilds the exact [`Column`] variant — all-NULL typed
//! columns included — so query results and downstream raw-byte
//! accounting are bit-identical to an unencoded transfer.

use std::sync::Arc;

use xdb_sql::column::{Bitmap, StrCol};
use xdb_sql::hash::FastMap;
use xdb_sql::{Column, TypedCol, Value};

/// Per-frame framing cost in bytes: `nrows` + `ncols`, each `u32`.
const FRAME_HEADER_BYTES: u64 = 8;
/// Per-column framing cost: variant tag (1) + codec tag (1) + payload
/// length (4).
pub const COLUMN_HEADER_BYTES: u64 = 6;

/// Which encoding a column's payload uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Codec {
    /// First-appearance dictionary + bit-packed indices.
    Dict,
    /// Frame-of-reference minimum + bit-packed deltas.
    ForPack,
    /// Run-length encoded values.
    Rle,
    /// Uncompressed fallback.
    Raw,
}

impl Codec {
    pub(crate) fn label(self) -> &'static str {
        match self {
            Codec::Dict => "dict",
            Codec::ForPack => "forpack",
            Codec::Rle => "rle",
            Codec::Raw => "raw",
        }
    }
}

/// Column variant tags on the wire (decode must rebuild the exact
/// [`Column`] variant, so the tag travels with the payload).
const TAG_INT: u8 = 0;
const TAG_FLOAT: u8 = 1;
const TAG_STR: u8 = 2;
const TAG_DATE: u8 = 3;
const TAG_BOOL: u8 = 4;
const TAG_MIXED: u8 = 5;

/// One encoded column: variant tag, codec, payload.
#[derive(Debug, Clone)]
pub struct EncodedColumn {
    tag: u8,
    codec: Codec,
    payload: Vec<u8>,
}

impl EncodedColumn {
    pub fn codec(&self) -> Codec {
        self.codec
    }

    /// Bytes this column contributes to the encoded frame (header + payload).
    pub fn encoded_bytes(&self) -> u64 {
        COLUMN_HEADER_BYTES + self.payload.len() as u64
    }
}

/// A whole relation encoded for one edge. The codec state is computed over
/// the full relation, so [`Encoded::encoded_bytes`] is independent of the
/// transport chunk size.
#[derive(Debug, Clone)]
pub struct Encoded {
    columns: Vec<EncodedColumn>,
    nrows: usize,
}

/// Byte accounting for one encoded edge, ready for the transfer ledger.
#[derive(Debug, Clone)]
pub struct WireStats {
    /// Encoded frame size — what the simulated transfer model charges.
    pub encoded_bytes: u64,
    /// Transport chunks the edge ships in (`ceil(rows / chunk_rows)`;
    /// one frame for empty or unbounded edges).
    pub chunks: u64,
    /// Encoded bytes attributed per codec label, deterministic order.
    pub codec_bytes: Vec<(&'static str, u64)>,
}

impl Encoded {
    pub fn columns(&self) -> &[EncodedColumn] {
        &self.columns
    }

    fn sizes(&self) -> impl Iterator<Item = (Codec, u64)> + Clone + '_ {
        self.columns
            .iter()
            .map(|c| (c.codec, c.payload.len() as u64))
    }

    /// Encoded frame size in bytes. An empty relation ships no payload
    /// (the schema is already known from the DDL), matching the raw
    /// model where `wire_bytes() == 0` for zero rows.
    pub fn encoded_bytes(&self) -> u64 {
        frame_bytes(self.nrows, self.sizes())
    }

    /// Encoded bytes per codec label, in fixed label order (zero entries
    /// omitted) so metric emission is deterministic.
    pub fn codec_bytes(&self) -> Vec<(&'static str, u64)> {
        frame_codec_bytes(self.nrows, self.sizes())
    }

    /// Ledger-ready accounting for this edge at a given transport chunk
    /// size (`0` = unbounded, i.e. one chunk).
    pub fn stats(&self, chunk_rows: usize) -> WireStats {
        frame_stats(self.nrows, chunk_rows, self.sizes())
    }
}

/// The one accounting of a frame, over the `(codec, payload length)` of
/// its columns: [`Encoded`] and [`Measured`] both answer through these.
fn frame_bytes(nrows: usize, columns: impl Iterator<Item = (Codec, u64)>) -> u64 {
    if nrows == 0 {
        return 0;
    }
    FRAME_HEADER_BYTES
        + columns
            .map(|(_, len)| COLUMN_HEADER_BYTES + len)
            .sum::<u64>()
}

fn frame_codec_bytes(
    nrows: usize,
    columns: impl Iterator<Item = (Codec, u64)> + Clone,
) -> Vec<(&'static str, u64)> {
    let mut out = Vec::new();
    if nrows == 0 {
        return out;
    }
    for codec in [Codec::Dict, Codec::ForPack, Codec::Rle, Codec::Raw] {
        let bytes: u64 = columns
            .clone()
            .filter(|(c, _)| *c == codec)
            .map(|(_, len)| COLUMN_HEADER_BYTES + len)
            .sum();
        if bytes > 0 {
            out.push((codec.label(), bytes));
        }
    }
    out
}

fn frame_stats(
    nrows: usize,
    chunk_rows: usize,
    columns: impl Iterator<Item = (Codec, u64)> + Clone,
) -> WireStats {
    WireStats {
        encoded_bytes: frame_bytes(nrows, columns.clone()),
        chunks: chunk_count(nrows as u64, chunk_rows),
        codec_bytes: frame_codec_bytes(nrows, columns),
    }
}

/// Number of transport chunks for an edge of `rows` rows: `0` chunk rows
/// means unbounded (a single frame), and even an empty edge ships one
/// frame.
pub fn chunk_count(rows: u64, chunk_rows: usize) -> u64 {
    if rows == 0 || chunk_rows == 0 {
        1
    } else {
        rows.div_ceil(chunk_rows as u64)
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Encode a relation's columns for one edge. `nrows` is carried for empty
/// relations (no columns or zero-length columns).
pub fn encode(columns: &[Column], nrows: usize) -> Encoded {
    Encoded {
        columns: columns.iter().map(encode_column).collect(),
        nrows,
    }
}

fn encode_column(col: &Column) -> EncodedColumn {
    match col {
        Column::Int(c) => encode_for(c),
        Column::Date(c) => encode_for(c),
        Column::Str(c) => encode_str(c),
        Column::Bool(c) => encode_bool(c),
        Column::Float(c) => {
            let (codec, body) = plan_float(c);
            let mut payload = typed_payload(&c.nulls, body);
            each_present(c, |v| payload.extend_from_slice(&v.to_bits().to_le_bytes()));
            EncodedColumn {
                tag: TAG_FLOAT,
                codec,
                payload,
            }
        }
        Column::Mixed(values) => {
            let mut payload = Vec::new();
            values.iter().for_each(|v| put_mixed(&mut payload, v));
            EncodedColumn {
                tag: TAG_MIXED,
                codec: Codec::Raw,
                payload,
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Sizing-only measurement
// ---------------------------------------------------------------------------

/// Sizing-only form of [`Encoded`]: the exact codec choice and payload
/// length of every column, with no payload materialized.
///
/// Several edges only ever consume the byte *accounting* of the codec —
/// the mediator and Sclera baselines re-load a relation they already hold
/// in memory, and the final-result edge charges the ledger without the
/// client decoding anything. For those, [`measure`] runs the same `plan_*`
/// functions [`encode`] does and stops before emitting, so its
/// [`WireStats`] equal `encode(..).stats(..)` at a fraction of the cost.
#[derive(Debug, Clone)]
pub struct Measured {
    /// `(codec, payload length)` per column.
    columns: Vec<(Codec, u64)>,
    nrows: usize,
}

impl Measured {
    pub fn encoded_bytes(&self) -> u64 {
        frame_bytes(self.nrows, self.columns.iter().copied())
    }

    pub fn codec_bytes(&self) -> Vec<(&'static str, u64)> {
        frame_codec_bytes(self.nrows, self.columns.iter().copied())
    }

    pub fn stats(&self, chunk_rows: usize) -> WireStats {
        frame_stats(self.nrows, chunk_rows, self.columns.iter().copied())
    }

    /// `(codec, payload length)` per column, in schema order.
    pub fn columns(&self) -> &[(Codec, u64)] {
        &self.columns
    }
}

/// Size an edge without encoding it. See [`Measured`].
pub fn measure(columns: &[Column], nrows: usize) -> Measured {
    Measured {
        columns: columns.iter().map(measure_column).collect(),
        nrows,
    }
}

fn measure_column(col: &Column) -> (Codec, u64) {
    let typed =
        |nulls: &Bitmap, (codec, body): Choice| (codec, (null_runs_plan(nulls).1 + body) as u64);
    match col {
        Column::Int(c) => typed(&c.nulls, plan_for(c).0),
        Column::Date(c) => typed(&c.nulls, plan_for(c).0),
        Column::Str(c) => typed(c.nulls(), plan_dict::<false>(c).0),
        Column::Bool(c) => typed(&c.nulls, plan_rle::<false>(c).0),
        Column::Float(c) => typed(&c.nulls, plan_float(c)),
        Column::Mixed(values) => (
            Codec::Raw,
            values.iter().map(mixed_len).sum::<usize>() as u64,
        ),
    }
}

// ---------------------------------------------------------------------------
// One rule per codec decision: plan, then emit
// ---------------------------------------------------------------------------

/// What a `plan_*` scan of a column's present values decides: the winning
/// codec and the exact length of its body (the payload after the null-run
/// prefix). [`encode`] emits that body; [`measure`] stops here.
type Choice = (Codec, usize);

/// The selection rule of every candidate codec: raw wins iff strictly
/// smaller, the candidate wins ties.
fn choose(candidate: Codec, candidate_len: usize, raw_len: usize) -> Choice {
    if raw_len < candidate_len {
        (Codec::Raw, raw_len)
    } else {
        (candidate, candidate_len)
    }
}

/// The payload of a typed column up to its body: the null-run prefix, in
/// one allocation sized for exactly that prefix and the `body` bytes the
/// plan promised.
fn typed_payload(nulls: &Bitmap, body: usize) -> Vec<u8> {
    let (runs, prefix) = null_runs_plan(nulls);
    let mut payload = Vec::with_capacity(prefix + body);
    put_varint(&mut payload, runs);
    each_null_run(nulls, |run| put_varint(&mut payload, run));
    payload
}

/// An integer type the frame-of-reference codec packs. Deltas are taken
/// at `i64`; the raw fallback ships (and reads back) the type's own
/// little-endian width.
trait Packed: Copy {
    const TAG: u8;
    const RAW_BYTES: usize;
    fn widen(self) -> i64;
    fn narrow(v: i64) -> Self;
    fn put_le(self, out: &mut Vec<u8>);
    fn get_le(cur: &mut Cursor<'_>) -> Self;
}

impl Packed for i64 {
    const TAG: u8 = TAG_INT;
    const RAW_BYTES: usize = 8;
    fn widen(self) -> i64 {
        self
    }
    fn narrow(v: i64) -> i64 {
        v
    }
    fn put_le(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn get_le(cur: &mut Cursor<'_>) -> i64 {
        cur.get_u64le() as i64
    }
}

impl Packed for i32 {
    const TAG: u8 = TAG_DATE;
    const RAW_BYTES: usize = 4;
    fn widen(self) -> i64 {
        i64::from(self)
    }
    fn narrow(v: i64) -> i32 {
        v as i32
    }
    fn put_le(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn get_le(cur: &mut Cursor<'_>) -> i32 {
        cur.get_i32le()
    }
}

/// Frame of reference for `Int` and `Date`: the choice, the minimum and
/// the bit width of the deltas.
fn plan_for<T: Packed>(c: &TypedCol<T>) -> (Choice, i64, u8) {
    let (mut count, mut vmin, mut vmax) = (0u64, i64::MAX, i64::MIN);
    each_present(c, |v| {
        count += 1;
        vmin = vmin.min(v.widen());
        vmax = vmax.max(v.widen());
    });
    // The per-value deltas `v.wrapping_sub(min) as u64` are exactly the
    // true differences (they fit u64 by construction), so the largest is
    // the delta of the maximum value.
    let (min, max_delta) = match count {
        0 => (0, 0),
        _ => (vmin, vmax.wrapping_sub(vmin) as u64),
    };
    let width = bits_for(max_delta);
    let pack = varint_len(zigzag(min)) + 1 + packed_bytes(count, width);
    let raw = T::RAW_BYTES * count as usize;
    (choose(Codec::ForPack, pack, raw), min, width)
}

fn encode_for<T: Packed>(c: &TypedCol<T>) -> EncodedColumn {
    let ((codec, body), min, width) = plan_for(c);
    let mut payload = typed_payload(&c.nulls, body);
    if codec == Codec::Raw {
        each_present(c, |v| v.put_le(&mut payload));
    } else {
        put_varint(&mut payload, zigzag(min));
        payload.push(width);
        let mut bw = BitWriter::new(&mut payload);
        each_present(c, |v| bw.put(v.widen().wrapping_sub(min) as u64, width));
        bw.finish();
    }
    EncodedColumn {
        tag: T::TAG,
        codec,
        payload,
    }
}

/// Bit width of the indices into a dictionary of `entries` strings.
fn dict_width(entries: u64) -> u8 {
    bits_for(entries.saturating_sub(1))
}

/// First-appearance dictionary for `Str`: one pass builds the index and
/// the exact raw and dictionary body sizes. With `KEEP` it also returns
/// what emission needs, the distinct strings in first-appearance order
/// and every present value's id; sizing leaves both vectors empty (and
/// unallocated).
fn plan_dict<const KEEP: bool>(c: &StrCol) -> (Choice, Vec<&Arc<str>>, Vec<u64>) {
    // FNV instead of SipHash: dictionary ids are assigned in scan order, so
    // the emitted bytes cannot depend on the hasher.
    let mut index: FastMap<&str, u64> = FastMap::default();
    let mut dict: Vec<&Arc<str>> = Vec::new();
    let mut ids: Vec<u64> = Vec::with_capacity(if KEEP { c.len() } else { 0 });
    let (mut raw, mut entries, mut present) = (0usize, 0usize, 0u64);
    c.for_each_present(|v| {
        raw += str_len(v);
        present += 1;
        let next = index.len() as u64;
        let id = *index.entry(v.as_ref()).or_insert_with(|| {
            entries += str_len(v);
            if KEEP {
                dict.push(v);
            }
            next
        });
        if KEEP {
            ids.push(id);
        }
    });
    let n = index.len() as u64;
    let dict_len = varint_len(n) + entries + packed_bytes(present, dict_width(n));
    (choose(Codec::Dict, dict_len, raw), dict, ids)
}

fn encode_str(c: &StrCol) -> EncodedColumn {
    let ((codec, body), dict, ids) = plan_dict::<true>(c);
    let mut payload = typed_payload(c.nulls(), body);
    if codec == Codec::Raw {
        c.for_each_present(|v| put_str(&mut payload, v));
    } else {
        put_varint(&mut payload, dict.len() as u64);
        for entry in &dict {
            put_str(&mut payload, entry);
        }
        let width = dict_width(dict.len() as u64);
        let mut bw = BitWriter::new(&mut payload);
        for id in &ids {
            bw.put(*id, width);
        }
        bw.finish();
    }
    EncodedColumn {
        tag: TAG_STR,
        codec,
        payload,
    }
}

/// Run length for `Bool`: one pass sizes both bodies. With `KEEP` it
/// also returns every maximal run of equal present values, in order, for
/// emission; sizing leaves the vector empty.
fn plan_rle<const KEEP: bool>(c: &TypedCol<bool>) -> (Choice, Vec<(bool, u64)>) {
    let mut runs = Vec::new();
    let (mut run_bytes, mut nruns, mut present) = (0usize, 0u64, 0usize);
    let mut close = |run: (bool, u64)| {
        nruns += 1;
        run_bytes += 1 + varint_len(run.1);
        if KEEP {
            runs.push(run);
        }
    };
    let mut open: Option<(bool, u64)> = None;
    each_present(c, |v| {
        present += 1;
        match &mut open {
            Some((val, len)) if *val == *v => *len += 1,
            _ => {
                if let Some(run) = open.replace((*v, 1)) {
                    close(run);
                }
            }
        }
    });
    if let Some(run) = open {
        close(run);
    }
    let rle = varint_len(nruns) + run_bytes;
    (choose(Codec::Rle, rle, present), runs)
}

fn encode_bool(c: &TypedCol<bool>) -> EncodedColumn {
    let ((codec, body), runs) = plan_rle::<true>(c);
    let mut payload = typed_payload(&c.nulls, body);
    if codec == Codec::Raw {
        each_present(c, |v| payload.push(u8::from(*v)));
    } else {
        put_varint(&mut payload, runs.len() as u64);
        for (v, len) in &runs {
            payload.push(u8::from(*v));
            put_varint(&mut payload, *len);
        }
    }
    EncodedColumn {
        tag: TAG_BOOL,
        codec,
        payload,
    }
}

/// `Float` has no candidate codec: bit patterns, 8 bytes a present value.
fn plan_float(c: &TypedCol<f64>) -> Choice {
    (Codec::Raw, 8 * (c.len() - c.nulls.count_ones()))
}

/// One value of the tagged row-major encoding of `Mixed` columns (value
/// tags carry the nulls, so there is no null-run prefix).
fn put_mixed(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(0),
        Value::Int(i) => {
            out.push(1);
            put_varint(out, zigzag(*i));
        }
        Value::Float(f) => {
            out.push(2);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(3);
            put_str(out, s);
        }
        Value::Date(d) => {
            out.push(4);
            put_varint(out, zigzag(*d as i64));
        }
        Value::Bool(b) => {
            out.push(5);
            out.push(u8::from(*b));
        }
    }
}

/// Exact byte count [`put_mixed`] emits for `v`.
fn mixed_len(v: &Value) -> usize {
    1 + match v {
        Value::Null => 0,
        Value::Int(i) => varint_len(zigzag(*i)),
        Value::Float(_) => 8,
        Value::Str(s) => str_len(s),
        Value::Date(d) => varint_len(zigzag(*d as i64)),
        Value::Bool(_) => 1,
    }
}

/// Calls `f` on every present value of `c`, in row order. The NULL test
/// is made once per column: a column without NULLs (every column the TPC-H
/// generator emits) is walked as its slice, with no bit read per row.
fn each_present<'a, T>(c: &'a TypedCol<T>, mut f: impl FnMut(&'a T)) {
    if c.nulls.none_set() {
        c.data.iter().for_each(f);
    } else {
        for (i, v) in c.data.iter().enumerate() {
            if !c.nulls.get(i) {
                f(v);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Incremental decoder: [`StreamDecoder::take`] appends the next `k` rows
/// of every column into typed accumulators, so a consumer can ingest the
/// edge morsel by morsel. The output of `take(1)×n`, `take(4096)…`, and
/// `take(n)` is bit-identical by construction.
pub struct StreamDecoder<'a> {
    columns: Vec<ColDecoder<'a>>,
    remaining: usize,
}

impl<'a> StreamDecoder<'a> {
    pub(crate) fn new(enc: &'a Encoded) -> StreamDecoder<'a> {
        StreamDecoder::with_morsel_capacity(enc, enc.nrows)
    }

    /// Like [`StreamDecoder::new`] but sizing the per-column accumulators
    /// for `capacity`-row morsels instead of the whole edge — the right
    /// constructor when every chunk is drained via
    /// [`StreamDecoder::take_columns`] rather than accumulated for one
    /// final [`StreamDecoder::finish`].
    pub fn with_morsel_capacity(enc: &'a Encoded, capacity: usize) -> StreamDecoder<'a> {
        let columns = enc
            .columns
            .iter()
            .map(|c| ColDecoder::new(c, capacity.min(enc.nrows)))
            .collect();
        StreamDecoder {
            columns,
            remaining: enc.nrows,
        }
    }

    /// Rows not yet decoded.
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// Decode the next `rows` rows (clamped to what remains) into the
    /// per-column accumulators.
    pub(crate) fn take(&mut self, rows: usize) {
        let k = rows.min(self.remaining);
        for col in &mut self.columns {
            col.take(k);
        }
        self.remaining -= k;
    }

    /// Decode the next `rows` rows (clamped to what remains) and hand
    /// them back as standalone morsel columns, leaving the accumulators
    /// empty for the next morsel. Driving this per chunk yields columns
    /// whose concatenation is bit-identical to one [`StreamDecoder::finish`].
    pub fn take_columns(&mut self, rows: usize) -> Vec<Column> {
        let k = rows.min(self.remaining);
        for col in &mut self.columns {
            col.take(k);
        }
        self.remaining -= k;
        self.columns
            .iter_mut()
            .map(|c| c.take_morsel(self.remaining.min(k)))
            .collect()
    }

    /// Finish the stream, yielding the reconstructed columns. Panics if
    /// rows remain undecoded.
    pub(crate) fn finish(mut self) -> Vec<Column> {
        assert_eq!(self.remaining, 0, "stream decoder finished early");
        self.columns.iter_mut().map(|c| c.take_morsel(0)).collect()
    }
}

/// Decode a whole block in one chunk.
pub fn decode(enc: &Encoded) -> Vec<Column> {
    decode_chunked(enc, 0)
}

/// Decode a block by driving the stream decoder in `chunk_rows`-row
/// morsels (`0` = unbounded, a single morsel).
pub fn decode_chunked(enc: &Encoded, chunk_rows: usize) -> Vec<Column> {
    let mut dec = StreamDecoder::new(enc);
    let step = if chunk_rows == 0 {
        enc.nrows.max(1)
    } else {
        chunk_rows
    };
    while dec.remaining() > 0 {
        dec.take(step);
    }
    dec.finish()
}

/// One typed column in flight: its null runs, its codec body positioned
/// at the next present value, and the rows decoded since the last morsel
/// was handed out.
struct TypedDecoder<'a, T, B> {
    nulls: NullCursor<'a>,
    body: B,
    acc: TypedCol<T>,
}

/// A codec body that yields a column's present values in order.
trait Body<'a, T> {
    fn parse(codec: Codec, cur: Cursor<'a>) -> Self;
    fn next(&mut self) -> T;
}

impl<'a, T: Clone + Default, B: Body<'a, T>> TypedDecoder<'a, T, B> {
    fn new(col: &'a EncodedColumn, nrows: usize) -> Self {
        let mut cur = Cursor::new(&col.payload);
        let nulls = NullCursor::parse(&mut cur);
        TypedDecoder {
            nulls,
            body: B::parse(col.codec, cur),
            acc: TypedCol::with_capacity(nrows),
        }
    }

    /// Decodes the next `k` rows run by run: a present run's values in one
    /// loop, then its clear NULL bits at once.
    fn take(&mut self, mut k: usize) {
        while k > 0 {
            let (is_null, run) = self.nulls.run(k);
            if is_null {
                (0..run).for_each(|_| self.acc.push_null());
            } else {
                let body = &mut self.body;
                self.acc.data.extend((0..run).map(|_| body.next()));
                self.acc.nulls.push_zeros(run);
            }
            k -= run;
        }
    }

    /// Swap the accumulated rows out as one morsel, leaving a fresh
    /// accumulator (sized for `next_cap` rows) behind.
    fn take_morsel(&mut self, next_cap: usize) -> Arc<TypedCol<T>> {
        Arc::new(std::mem::replace(
            &mut self.acc,
            TypedCol::with_capacity(next_cap),
        ))
    }
}

enum ColDecoder<'a> {
    Int(TypedDecoder<'a, i64, PackOrRaw<'a>>),
    Date(TypedDecoder<'a, i32, PackOrRaw<'a>>),
    Float(TypedDecoder<'a, f64, Cursor<'a>>),
    Str(TypedDecoder<'a, Arc<str>, StrBody<'a>>),
    Bool(TypedDecoder<'a, bool, BoolBody<'a>>),
    /// Row-major tagged values: no null runs, no codec body.
    Mixed {
        cur: Cursor<'a>,
        acc: Vec<Value>,
    },
}

impl<'a> ColDecoder<'a> {
    fn new(col: &'a EncodedColumn, nrows: usize) -> ColDecoder<'a> {
        match col.tag {
            TAG_INT => ColDecoder::Int(TypedDecoder::new(col, nrows)),
            TAG_DATE => ColDecoder::Date(TypedDecoder::new(col, nrows)),
            TAG_FLOAT => ColDecoder::Float(TypedDecoder::new(col, nrows)),
            TAG_STR => ColDecoder::Str(TypedDecoder::new(col, nrows)),
            TAG_BOOL => ColDecoder::Bool(TypedDecoder::new(col, nrows)),
            TAG_MIXED => ColDecoder::Mixed {
                cur: Cursor::new(&col.payload),
                acc: Vec::with_capacity(nrows),
            },
            other => panic!("wire: unknown column tag {other}"),
        }
    }

    fn take(&mut self, k: usize) {
        match self {
            ColDecoder::Int(d) => d.take(k),
            ColDecoder::Date(d) => d.take(k),
            ColDecoder::Float(d) => d.take(k),
            ColDecoder::Str(d) => d.take(k),
            ColDecoder::Bool(d) => d.take(k),
            ColDecoder::Mixed { cur, acc } => {
                for _ in 0..k {
                    acc.push(match cur.get_u8() {
                        0 => Value::Null,
                        1 => Value::Int(unzigzag(cur.get_varint())),
                        2 => Value::Float(f64::from_bits(cur.get_u64le())),
                        3 => Value::Str(cur.get_str()),
                        4 => Value::Date(unzigzag(cur.get_varint()) as i32),
                        5 => Value::Bool(cur.get_u8() != 0),
                        other => panic!("wire: unknown value tag {other}"),
                    });
                }
            }
        }
    }

    /// The rows taken since the last morsel, as one column; `next_cap`
    /// sizes the accumulator left behind (`0` when the stream is done).
    fn take_morsel(&mut self, next_cap: usize) -> Column {
        match self {
            ColDecoder::Int(d) => Column::Int(d.take_morsel(next_cap)),
            ColDecoder::Date(d) => Column::Date(d.take_morsel(next_cap)),
            ColDecoder::Float(d) => Column::Float(d.take_morsel(next_cap)),
            ColDecoder::Str(d) => Column::Str(d.take_morsel(next_cap).into()),
            ColDecoder::Bool(d) => Column::Bool(d.take_morsel(next_cap)),
            ColDecoder::Mixed { acc, .. } => Column::Mixed(Arc::new(std::mem::replace(
                acc,
                Vec::with_capacity(next_cap),
            ))),
        }
    }
}

/// Body of an `Int` or `Date` column; the value type picks the raw width.
enum PackOrRaw<'a> {
    Pack {
        min: i64,
        width: u8,
        bits: BitReader<'a>,
    },
    Raw(Cursor<'a>),
}

impl<'a, T: Packed> Body<'a, T> for PackOrRaw<'a> {
    fn parse(codec: Codec, mut cur: Cursor<'a>) -> Self {
        match codec {
            Codec::ForPack => PackOrRaw::Pack {
                min: unzigzag(cur.get_varint()),
                width: cur.get_u8(),
                bits: BitReader::new(cur.rest()),
            },
            _ => PackOrRaw::Raw(cur),
        }
    }

    fn next(&mut self) -> T {
        match self {
            PackOrRaw::Pack { min, width, bits } => {
                T::narrow(min.wrapping_add(bits.get(*width) as i64))
            }
            PackOrRaw::Raw(cur) => T::get_le(cur),
        }
    }
}

impl<'a> Body<'a, f64> for Cursor<'a> {
    fn parse(_: Codec, cur: Cursor<'a>) -> Self {
        cur
    }

    fn next(&mut self) -> f64 {
        f64::from_bits(self.get_u64le())
    }
}

enum StrBody<'a> {
    Dict {
        dict: Vec<Arc<str>>,
        width: u8,
        bits: BitReader<'a>,
    },
    Raw(Cursor<'a>),
}

impl<'a> Body<'a, Arc<str>> for StrBody<'a> {
    fn parse(codec: Codec, mut cur: Cursor<'a>) -> Self {
        match codec {
            Codec::Dict => {
                let dict_len = cur.get_varint() as usize;
                let mut dict = Vec::with_capacity(dict_len);
                for _ in 0..dict_len {
                    dict.push(cur.get_str());
                }
                StrBody::Dict {
                    dict,
                    width: dict_width(dict_len as u64),
                    bits: BitReader::new(cur.rest()),
                }
            }
            _ => StrBody::Raw(cur),
        }
    }

    // Left to itself the compiler outlines this one body (a call per
    // value: +5 % on `Str` decode, 65 k rows).
    #[inline]
    fn next(&mut self) -> Arc<str> {
        match self {
            StrBody::Dict { dict, width, bits } => Arc::clone(&dict[bits.get(*width) as usize]),
            StrBody::Raw(cur) => cur.get_str(),
        }
    }
}

enum BoolBody<'a> {
    Rle {
        runs: Vec<(bool, u64)>,
        idx: usize,
        left: u64,
    },
    Raw(Cursor<'a>),
}

impl<'a> Body<'a, bool> for BoolBody<'a> {
    fn parse(codec: Codec, mut cur: Cursor<'a>) -> Self {
        match codec {
            Codec::Rle => {
                let nruns = cur.get_varint() as usize;
                let mut runs = Vec::with_capacity(nruns);
                for _ in 0..nruns {
                    let v = cur.get_u8() != 0;
                    runs.push((v, cur.get_varint()));
                }
                let left = runs.first().map_or(0, |(_, l)| *l);
                BoolBody::Rle { runs, idx: 0, left }
            }
            _ => BoolBody::Raw(cur),
        }
    }

    fn next(&mut self) -> bool {
        match self {
            BoolBody::Rle { runs, idx, left } => {
                while *left == 0 {
                    *idx += 1;
                    *left = runs[*idx].1;
                }
                *left -= 1;
                runs[*idx].0
            }
            BoolBody::Raw(cur) => cur.get_u8() != 0,
        }
    }
}

// ---------------------------------------------------------------------------
// Null-run, varint, and bit-level primitives
// ---------------------------------------------------------------------------

/// The run-length form of a null bitmap, run by run: alternating run
/// lengths starting with a PRESENT run (which may be zero-length when the
/// column opens with a null). On the wire the runs follow their varint
/// count. A column without NULLs is one run of all its rows (none for
/// zero rows), with no walk of the bitmap.
fn each_null_run(nulls: &Bitmap, mut f: impl FnMut(u64)) {
    let n = nulls.len();
    if nulls.none_set() {
        if n > 0 {
            f(n as u64);
        }
        return;
    }
    let mut expect_null = false;
    let mut i = 0;
    while i < n {
        let mut len = 0u64;
        while i < n && nulls.get(i) == expect_null {
            len += 1;
            i += 1;
        }
        f(len);
        expect_null = !expect_null;
    }
}

/// The null-run prefix's run count and exact byte length: what
/// [`typed_payload`] writes and [`measure`] charges, from one walk.
fn null_runs_plan(nulls: &Bitmap) -> (u64, usize) {
    let (mut runs, mut bytes) = (0u64, 0usize);
    each_null_run(nulls, |run| {
        runs += 1;
        bytes += varint_len(run);
    });
    (runs, varint_len(runs) + bytes)
}

/// Streaming cursor over the null-run prefix, read in place: [`run`]
/// hands out the rows ahead as `(is_null, length)` runs.
///
/// [`run`]: NullCursor::run
struct NullCursor<'a> {
    /// The run lengths not yet started.
    runs: Cursor<'a>,
    /// Whether the current run is a null run (runs alternate, the first
    /// one present).
    is_null: bool,
    /// Rows left in the current run.
    left: u64,
}

impl<'a> NullCursor<'a> {
    /// Reads the prefix at `cur` and leaves `cur` at the body behind it.
    fn parse(cur: &mut Cursor<'a>) -> NullCursor<'a> {
        let nruns = cur.get_varint();
        let start = cur.pos;
        for _ in 0..nruns {
            cur.get_varint();
        }
        NullCursor {
            runs: Cursor::new(&cur.buf[start..cur.pos]),
            // Flipped as the first run starts, which is a present run.
            is_null: true,
            left: 0,
        }
    }

    /// The next `(is_null, length)` run of at most `limit` rows; `limit`
    /// must be positive and no more than the rows left.
    fn run(&mut self, limit: usize) -> (bool, usize) {
        while self.left == 0 {
            self.left = self.runs.get_varint();
            self.is_null = !self.is_null;
        }
        let len = self.left.min(limit as u64);
        self.left -= len;
        (self.is_null, len as usize)
    }
}

/// Minimum bit width able to represent `v` (0 for `v == 0`).
fn bits_for(v: u64) -> u8 {
    (64 - v.leading_zeros()) as u8
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Exact byte count [`put_varint`] would emit for `v`.
fn varint_len(mut v: u64) -> usize {
    let mut n = 1;
    while v >= 0x80 {
        v >>= 7;
        n += 1;
    }
    n
}

/// Exact byte count a [`BitWriter`] produces for `count` values of
/// `width` bits each.
fn packed_bytes(count: u64, width: u8) -> usize {
    ((count * u64::from(width)).div_ceil(8)) as usize
}

/// A length-prefixed string: raw `Str` values, dictionary entries and
/// `Mixed` strings all travel this way.
fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Exact byte count [`put_str`] emits for `s`.
fn str_len(s: &str) -> usize {
    varint_len(s.len() as u64) + s.len()
}

/// Byte cursor with panicking reads (the format is produced by [`encode`]
/// in the same process; corruption is a bug, not an input error).
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    fn get_u8(&mut self) -> u8 {
        let b = self.buf[self.pos];
        self.pos += 1;
        b
    }

    fn get_varint(&mut self) -> u64 {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.get_u8();
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return v;
            }
            shift += 7;
        }
    }

    fn get_bytes(&mut self, n: usize) -> &'a [u8] {
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        s
    }

    /// Reads what [`put_str`] wrote.
    fn get_str(&mut self) -> Arc<str> {
        let len = self.get_varint() as usize;
        Arc::from(std::str::from_utf8(self.get_bytes(len)).expect("wire: utf8 string"))
    }

    fn get_u64le(&mut self) -> u64 {
        u64::from_le_bytes(self.get_bytes(8).try_into().unwrap())
    }

    fn get_i32le(&mut self) -> i32 {
        i32::from_le_bytes(self.get_bytes(4).try_into().unwrap())
    }

    fn rest(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }
}

/// LSB-first bit packer for fixed-width values, appending to a payload
/// (sized beforehand by the plan, so it never grows here). Bits gather in
/// a 64-bit word that is written as 8 little-endian bytes each time it
/// fills; [`BitWriter::finish`] writes the bytes the tail occupies.
struct BitWriter<'a> {
    out: &'a mut Vec<u8>,
    /// The pending bits, the oldest lowest; only the low `nbits` are set.
    acc: u64,
    /// Always below 64: a full word is flushed at once.
    nbits: u32,
}

impl<'a> BitWriter<'a> {
    fn new(out: &'a mut Vec<u8>) -> BitWriter<'a> {
        BitWriter {
            out,
            acc: 0,
            nbits: 0,
        }
    }

    /// Appends the low `width` bits of `v` (`v < 2^width`).
    fn put(&mut self, v: u64, width: u8) {
        self.acc |= v << self.nbits;
        let total = self.nbits + u32::from(width);
        if total < 64 {
            self.nbits = total;
        } else {
            self.out.extend_from_slice(&self.acc.to_le_bytes());
            // The bits of `v` that did not fit (none when the word was
            // empty, a shift by 64).
            self.acc = v.checked_shr(64 - self.nbits).unwrap_or(0);
            self.nbits = total - 64;
        }
    }

    fn finish(self) {
        let tail = self.nbits.div_ceil(8) as usize;
        self.out.extend_from_slice(&self.acc.to_le_bytes()[..tail]);
    }
}

/// LSB-first bit reader matching [`BitWriter`]: it refills 64 bits with
/// one load while 8 bytes remain and reads the last few bytes one by one.
struct BitReader<'a> {
    buf: &'a [u8],
    /// Bits read ahead and not yet handed out, the next lowest; only the
    /// low `nbits` are set.
    acc: u64,
    /// Always below 64.
    nbits: u32,
}

impl<'a> BitReader<'a> {
    fn new(buf: &'a [u8]) -> BitReader<'a> {
        BitReader {
            buf,
            acc: 0,
            nbits: 0,
        }
    }

    /// The next `width`-bit value.
    fn get(&mut self, width: u8) -> u64 {
        let width = u32::from(width);
        if width == 0 {
            return 0;
        }
        let mask = u64::MAX >> (64 - width);
        if width <= self.nbits {
            let v = self.acc & mask;
            self.acc >>= width;
            self.nbits -= width;
            return v;
        }
        // The value straddles the refill: its low `nbits` bits are in
        // `acc`, the rest open the next word.
        let (word, bits) = match self.buf.split_first_chunk::<8>() {
            Some((word, rest)) => {
                self.buf = rest;
                (u64::from_le_bytes(*word), 64)
            }
            None => {
                let tail = self.buf.iter().rev().fold(0, |w, &b| w << 8 | u64::from(b));
                let bits = 8 * self.buf.len() as u32;
                self.buf = &[];
                (tail, bits)
            }
        };
        let v = (self.acc | word << self.nbits) & mask;
        let used = width - self.nbits;
        self.acc = word.checked_shr(used).unwrap_or(0);
        self.nbits = bits - used;
        v
    }
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use xdb_sql::column::Column;

    fn col(values: &[Value]) -> Column {
        Column::from_values(values.to_vec())
    }

    fn roundtrip(c: &Column) -> Column {
        let enc = encode(std::slice::from_ref(c), c.len());
        let mut cols = decode(&enc);
        assert_eq!(cols.len(), 1);
        cols.pop().unwrap()
    }

    #[test]
    fn int_forpack_roundtrips_and_compresses() {
        let values: Vec<Value> = (0..1000)
            .map(|i| {
                if i % 53 == 0 {
                    Value::Null
                } else {
                    Value::Int(1_000_000 + (i % 97))
                }
            })
            .collect();
        let c = col(&values);
        let enc = encode(std::slice::from_ref(&c), c.len());
        assert_eq!(enc.columns[0].codec, Codec::ForPack);
        assert!(enc.encoded_bytes() < c.wire_bytes() / 4);
        let back = roundtrip(&c);
        assert!(matches!(back, Column::Int(_)));
        assert_eq!(back, c);
    }

    #[test]
    fn int_extremes_roundtrip() {
        let c = col(&[
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Null,
            Value::Int(0),
        ]);
        assert_eq!(roundtrip(&c), c);
    }

    #[test]
    fn date_raw_fallback_roundtrips() {
        // A single far-out date makes the FOR-pack body (varint min +
        // width byte) lose to raw (4 bytes/value); the raw decode must
        // read back i32-width values, not the Int path's 8 bytes.
        for c in [
            col(&[Value::Date(2_000_000)]),
            col(&[Value::Date(i32::MIN), Value::Date(i32::MAX)]),
            col(&[
                Value::Null,
                Value::Date(i32::MAX),
                Value::Null,
                Value::Date(i32::MIN),
            ]),
        ] {
            let enc = encode(std::slice::from_ref(&c), c.len());
            assert_eq!(enc.columns[0].codec, Codec::Raw);
            let back = roundtrip(&c);
            assert!(matches!(back, Column::Date(_)));
            assert_eq!(back, c);
        }
    }

    #[test]
    fn str_dict_roundtrips_and_compresses() {
        let tags = ["alpha", "beta", "gamma-longer-tag", "delta"];
        let values: Vec<Value> = (0..500)
            .map(|i| {
                if i % 41 == 0 {
                    Value::Null
                } else {
                    Value::Str(Arc::from(tags[i % tags.len()]))
                }
            })
            .collect();
        let c = col(&values);
        let enc = encode(std::slice::from_ref(&c), c.len());
        assert_eq!(enc.columns[0].codec, Codec::Dict);
        assert!(enc.encoded_bytes() < c.wire_bytes() / 4);
        let back = roundtrip(&c);
        assert!(matches!(back, Column::Str(_)));
        assert_eq!(back, c);
    }

    #[test]
    fn high_entropy_strings_fall_back_to_raw() {
        let values: Vec<Value> = (0..64)
            .map(|i| Value::Str(Arc::from(format!("unique-value-{i:08}"))))
            .collect();
        let c = col(&values);
        let enc = encode(std::slice::from_ref(&c), c.len());
        assert_eq!(enc.columns[0].codec, Codec::Raw);
        assert_eq!(roundtrip(&c), c);
    }

    #[test]
    fn bool_rle_roundtrips_and_compresses() {
        let values: Vec<Value> = (0..600)
            .map(|i| {
                if i == 300 {
                    Value::Null
                } else {
                    Value::Bool(i < 400)
                }
            })
            .collect();
        let c = col(&values);
        let enc = encode(std::slice::from_ref(&c), c.len());
        assert_eq!(enc.columns[0].codec, Codec::Rle);
        assert!(enc.encoded_bytes() < c.wire_bytes() / 4);
        assert_eq!(roundtrip(&c), c);
    }

    #[test]
    fn float_bits_roundtrip_exactly() {
        let c = col(&[
            Value::Float(0.1),
            Value::Float(-0.0),
            Value::Float(f64::NAN),
            Value::Null,
            Value::Float(f64::INFINITY),
        ]);
        let back = roundtrip(&c);
        // NaN != NaN under value equality; compare bit patterns instead.
        let (Column::Float(a), Column::Float(b)) = (&c, &back) else {
            panic!("expected float columns");
        };
        assert_eq!(a.nulls, b.nulls);
        let bits = |t: &TypedCol<f64>| t.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(a), bits(b));
    }

    #[test]
    fn mixed_and_all_null_columns_keep_their_variant() {
        let mixed = col(&[Value::Int(1), Value::Str(Arc::from("x")), Value::Null]);
        assert!(mixed.is_mixed());
        let back = roundtrip(&mixed);
        assert!(back.is_mixed());
        assert_eq!(back, mixed);

        // An all-NULL typed column must come back typed, not Mixed.
        let mut t = TypedCol::<i64>::with_capacity(3);
        t.push_null();
        t.push_null();
        t.push_null();
        let c = Column::Int(Arc::new(t));
        let back = roundtrip(&c);
        assert!(matches!(back, Column::Int(_)));
        assert_eq!(back, c);
    }

    #[test]
    fn empty_relation_encodes_to_zero_bytes() {
        let c = col(&[]);
        let enc = encode(std::slice::from_ref(&c), 0);
        assert_eq!(enc.encoded_bytes(), 0);
        assert!(enc.codec_bytes().is_empty());
        let back = decode(&enc);
        assert_eq!(back[0].len(), 0);
    }

    #[test]
    fn encoded_bytes_invariant_under_chunk_size_and_chunked_decode_identical() {
        let values: Vec<Value> = (0..997)
            .map(|i| {
                if i % 13 == 0 {
                    Value::Null
                } else {
                    Value::Int(i as i64 * 37)
                }
            })
            .collect();
        let c = col(&values);
        let enc = encode(std::slice::from_ref(&c), c.len());
        let whole = decode_chunked(&enc, 0);
        for chunk in [1usize, 7, 64, 4096] {
            let stats = enc.stats(chunk);
            assert_eq!(stats.encoded_bytes, enc.encoded_bytes());
            assert_eq!(stats.chunks, (997u64).div_ceil(chunk as u64));
            assert_eq!(decode_chunked(&enc, chunk), whole);
        }
        assert_eq!(enc.stats(0).chunks, 1);
    }

    #[test]
    fn take_columns_morsels_match_whole_decode() {
        let ints = col(&(0..997)
            .map(|i| {
                if i % 13 == 0 {
                    Value::Null
                } else {
                    Value::Int(i * 37)
                }
            })
            .collect::<Vec<_>>());
        let strs = col(&(0..997)
            .map(|i| Value::Str(Arc::from(["north", "south", "east", "west"][i % 4])))
            .collect::<Vec<_>>());
        let enc = encode(&[ints, strs], 997);
        let whole = decode(&enc);
        for chunk in [1usize, 7, 256, 4096] {
            let mut dec = StreamDecoder::with_morsel_capacity(&enc, chunk);
            let mut row = 0;
            while dec.remaining() > 0 {
                let morsel = dec.take_columns(chunk);
                let k = morsel[0].len();
                assert!(k > 0 && k <= chunk);
                for (w, m) in whole.iter().zip(&morsel) {
                    assert!(
                        std::mem::discriminant(w) == std::mem::discriminant(m),
                        "morsel variant must match whole-decode variant"
                    );
                    for i in 0..k {
                        assert_eq!(w.value(row + i), m.value(i));
                    }
                }
                row += k;
            }
            assert_eq!(row, 997);
        }
    }

    #[test]
    fn chunk_count_edges() {
        assert_eq!(chunk_count(0, 4096), 1);
        assert_eq!(chunk_count(10, 0), 1);
        assert_eq!(chunk_count(4096, 4096), 1);
        assert_eq!(chunk_count(4097, 4096), 2);
    }

    #[test]
    fn codec_bytes_sum_matches_frame_payload() {
        let ints = col(&(0..100).map(Value::Int).collect::<Vec<_>>());
        let strs = col(&(0..100)
            .map(|i| Value::Str(Arc::from(["a", "b"][i % 2])))
            .collect::<Vec<_>>());
        let enc = encode(&[ints, strs], 100);
        let sum: u64 = enc.codec_bytes().iter().map(|(_, b)| *b).sum();
        assert_eq!(sum + FRAME_HEADER_BYTES, enc.encoded_bytes());
    }

    /// Every column variant in both outcomes of its codec choice, plus the
    /// degenerate shapes: the digest over `(tag, codec, payload)` of every
    /// encoded column is pinned, so a codec refactor that moves one byte
    /// of any frame fails here (`wire_kb_per_query` only sees sizes).
    #[test]
    fn frames_are_pinned() {
        use std::hash::Hasher;
        const N: usize = 600;
        let every = |null_at: usize, f: &dyn Fn(usize) -> Value| -> Column {
            col(&(0..N)
                .map(|i| if i % null_at == 0 { Value::Null } else { f(i) })
                .collect::<Vec<_>>())
        };
        let text = |s: String| Value::Str(Arc::from(s));
        let mut all_null = TypedCol::<i32>::with_capacity(N);
        (0..N).for_each(|_| all_null.push_null());
        let columns = [
            (
                every(53, &|i| Value::Int(1_000_000 + (i % 97) as i64)),
                Codec::ForPack,
            ),
            (
                every(N + 1, &|i| Value::Int([i64::MIN, i64::MAX][i % 2])),
                Codec::Raw,
            ),
            (
                every(41, &|i| Value::Date(9_000 + (i % 365) as i32)),
                Codec::ForPack,
            ),
            (
                every(7, &|i| Value::Date([i32::MIN, i32::MAX][i % 2])),
                Codec::Raw,
            ),
            (
                every(29, &|i| text(["north", "south", "east", ""][i % 4].into())),
                Codec::Dict,
            ),
            (
                every(31, &|i| text(format!("unique-value-{i:08}"))),
                Codec::Raw,
            ),
            (every(300, &|i| Value::Bool(i < 400)), Codec::Rle),
            (every(N + 1, &|i| Value::Bool(i % 2 == 0)), Codec::Raw),
            (
                every(11, &|i| Value::Float(i as f64 * 0.37 - 50.0)),
                Codec::Raw,
            ),
            (
                every(7, &|i| match i % 5 {
                    0 => Value::Int(-(i as i64)),
                    1 => text(format!("m{i}")),
                    2 => Value::Date(i as i32),
                    3 => Value::Float(i as f64 / 3.0),
                    _ => Value::Bool(i % 2 == 0),
                }),
                Codec::Raw,
            ),
            (Column::Date(Arc::new(all_null)), Codec::Raw),
        ];
        assert!(columns[9].0.is_mixed());
        let (cols, codecs): (Vec<Column>, Vec<Codec>) = columns.into_iter().unzip();
        let empty: Vec<Column> = cols.iter().map(Column::empty_like).collect();
        let mut digest = xdb_sql::hash::Fnv::default();
        for (enc, expect) in [(encode(&cols, N), Some(&codecs)), (encode(&empty, 0), None)] {
            for (i, c) in enc.columns.iter().enumerate() {
                if let Some(expect) = expect {
                    assert_eq!(c.codec, expect[i], "column {i}");
                }
                digest.write(&[c.tag]);
                digest.write(c.codec.label().as_bytes());
                digest.write(&(c.payload.len() as u64).to_le_bytes());
                digest.write(&c.payload);
            }
        }
        assert_eq!(
            digest.finish(),
            31_350_432_164_776_872,
            "an encoded frame changed"
        );
    }
}
