//! Property tests for the columnar wire format: encode → decode must be
//! the identity on arbitrary columns (nulls, extremes, and degenerate
//! all-NULL shapes included), chunked streaming must reassemble the exact
//! same columns as a whole-frame decode, and the encoded size must be
//! independent of the transport chunking.
//!
//! The draws reach every path of the codec's word-wise loops: `Int` spans
//! of every bit width 0–64 and `Date` spans of 0–32 (so `forpack` bodies
//! of any width, many 64-bit words long), columns of up to 300 rows, NULL
//! patterns that are none, all, scattered or long runs, and chunk sizes
//! from one row to the whole edge, so chunk boundaries fall inside runs.

use std::sync::Arc;

use proptest::prelude::*;
use xdb_net::wire::{self, chunk_count};
use xdb_sql::column::{Column, ColumnBuilder, TypedCol};
use xdb_sql::value::Value;

/// Which rows of an `n`-row column are NULL: none, all, a scattering at
/// a drawn rate, or alternating runs of up to `n` rows that open with
/// either kind.
fn null_mask(rng: &mut TestRng, n: usize) -> Vec<bool> {
    match rng.below(4) {
        0 => vec![false; n],
        1 => vec![true; n],
        2 => {
            let per_16 = 1 + rng.below(15);
            (0..n).map(|_| rng.below(16) < per_16).collect()
        }
        _ => {
            let mut mask = Vec::with_capacity(n);
            let mut null = rng.bool();
            while mask.len() < n {
                let run = 1 + rng.below(n as u64) as usize;
                mask.extend(std::iter::repeat_n(null, run.min(n - mask.len())));
                null = !null;
            }
            mask
        }
    }
}

/// A typed column of `n` rows whose present values `value` draws; it is
/// typed even when every row is NULL.
fn typed<T: Clone + Default>(
    rng: &mut TestRng,
    n: usize,
    mut value: impl FnMut(&mut TestRng) -> T,
) -> Arc<TypedCol<T>> {
    let mut col = TypedCol::with_capacity(n);
    for null in null_mask(rng, n) {
        if null {
            col.push_null();
        } else {
            col.push(value(rng));
        }
    }
    Arc::new(col)
}

/// The low `width` bits of a draw (`width ≤ 63`).
fn below_bits(rng: &mut TestRng, width: u32) -> u64 {
    rng.next_u64() & ((1u64 << width) - 1)
}

/// One column of `n` rows of a drawn kind. `Int` values span a drawn bit
/// width from a drawn base (64: any `i64`), `Date` likewise up to 32 bits;
/// strings come from a dictionary of a drawn size or are free text;
/// `Bool` values come in runs or scattered.
fn column(rng: &mut TestRng, n: usize) -> Column {
    match rng.below(6) {
        0 => {
            let width = rng.below(65) as u32;
            let base = i64::arbitrary(rng);
            Column::Int(typed(rng, n, |rng| match width {
                64 => i64::arbitrary(rng),
                w => base.saturating_add(below_bits(rng, w) as i64),
            }))
        }
        1 => Column::Float(typed(rng, n, |rng| match rng.below(8) {
            0 => f64::from_bits(rng.next_u64()),
            _ => f64::arbitrary(rng),
        })),
        2 => strings(rng, n),
        3 => {
            let width = rng.below(33) as u32;
            let base = i32::arbitrary(rng);
            Column::Date(typed(rng, n, |rng| match width {
                32 => i32::arbitrary(rng),
                w => base.saturating_add(below_bits(rng, w) as i32),
            }))
        }
        4 => {
            let flip_per_16 = rng.below(17);
            let mut v = rng.bool();
            Column::Bool(typed(rng, n, |rng| {
                v ^= rng.below(16) < flip_per_16;
                v
            }))
        }
        _ => {
            let mut b = ColumnBuilder::with_capacity(n);
            for null in null_mask(rng, n) {
                b.push(match (null, rng.below(5)) {
                    (true, _) => Value::Null,
                    (_, 0) => Value::Int(i64::arbitrary(rng)),
                    (_, 1) => Value::Float(f64::arbitrary(rng)),
                    (_, 2) => Value::str("[a-z]{0,6}".new_value(rng)),
                    (_, 3) => Value::Date(i32::arbitrary(rng)),
                    _ => Value::Bool(rng.bool()),
                });
            }
            b.finish()
        }
    }
}

/// A string column of its own, of `n` rows from a dictionary of a drawn
/// size or free text.
fn strings(rng: &mut TestRng, n: usize) -> Column {
    let distinct = match rng.below(3) {
        0 => None,
        _ => Some(1 + rng.below(n as u64 + 1)),
    };
    Column::Str(
        typed(rng, n, |rng| match distinct {
            Some(d) => Arc::from(format!("tag-{}", rng.below(d))),
            None => Arc::from("[a-z]{0,12}".new_value(rng)),
        })
        .into(),
    )
}

/// A gathered string column of 0–300 rows, from one source or from two
/// (a column that reads two parts), and the same values built as a column
/// of their own.
fn gathered_strings() -> BoxedStrategy<(Column, Column)> {
    BoxedStrategy::new(|rng| {
        let n = rng.below(301) as usize;
        let sources = 1 + rng.below(2) as usize;
        let mut gathered: Option<Column> = None;
        for k in 0..sources {
            // This source's share of the rows. It has at most twice as
            // many, so that its rows are read by id, not copied.
            let share = n / sources + if k == 0 { n % sources } else { 0 };
            let rows = match share {
                0 => 1,
                _ => 1 + rng.below(2 * share as u64) as usize,
            };
            let src = strings(rng, rows);
            let sel: Vec<u32> = (0..share)
                .map(|_| rng.below(src.len() as u64) as u32)
                .collect();
            match &mut gathered {
                None => gathered = Some(src.gather(&sel)),
                Some(g) => g.append_gather(&src, &sel),
            }
        }
        let mut gathered = gathered.expect("one source at least");
        if rng.bool() {
            // Gathered once more: ids of ids, the two sources' rows mixed.
            let sel: Vec<u32> = (0..n).map(|_| rng.below(n as u64) as u32).collect();
            gathered = gathered.gather(&sel);
        }
        let mut own = TypedCol::with_capacity(n);
        for v in gathered.iter() {
            match v {
                Value::Str(s) => own.push(s),
                _ => own.push_null(),
            }
        }
        (gathered, Column::Str(own.into()))
    })
}

/// An edge: 1–3 columns of independent kinds over a shared row count of
/// 0–300 (0 is the empty-frame case), and a transport chunk of 1 to
/// `n + 1` rows.
fn edge() -> BoxedStrategy<(Vec<Column>, usize)> {
    BoxedStrategy::new(|rng| {
        let n = rng.below(301) as usize;
        let width = 1 + rng.below(3) as usize;
        let cols = (0..width).map(|_| column(rng, n)).collect();
        (cols, 1 + rng.below(n as u64 + 1) as usize)
    })
}

/// Bitwise column equality: `Float` payloads compare by bit pattern (a
/// drawn NaN is not equal to itself as a value).
fn assert_same(a: &Column, b: &Column) -> Result<(), TestCaseError> {
    match (a, b) {
        (Column::Float(x), Column::Float(y)) => {
            prop_assert_eq!(&x.nulls, &y.nulls);
            let bits = |c: &TypedCol<f64>| c.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(x), bits(y));
        }
        _ => prop_assert_eq!(a, b),
    }
    Ok(())
}

proptest! {
    /// encode → decode is the identity: every value (bitwise for floats)
    /// and every layout variant survives the wire.
    #[test]
    fn roundtrip_is_identity(edge in edge()) {
        let (cols, _) = edge;
        let n = cols[0].len();
        let enc = wire::encode(&cols, n);
        let back = wire::decode(&enc);
        prop_assert_eq!(back.len(), cols.len());
        for (b, c) in back.iter().zip(cols.iter()) {
            assert_same(b, c)?;
            // Variant preservation keeps downstream raw-byte accounting
            // invariant under the codec.
            prop_assert_eq!(b.wire_bytes(), c.wire_bytes());
        }
    }

    /// Streaming the frame in chunks of any size reassembles exactly the
    /// whole-frame decode, whether the chunks accumulate or are handed out
    /// as morsels, and the encoded size never depends on the transport
    /// chunking.
    #[test]
    fn chunked_decode_matches_whole(edge in edge()) {
        let (cols, chunk) = edge;
        let n = cols[0].len();
        let enc = wire::encode(&cols, n);
        let whole = wire::decode(&enc);
        let chunked = wire::decode_chunked(&enc, chunk);
        prop_assert_eq!(chunked.len(), whole.len());
        for (c, w) in chunked.iter().zip(&whole) {
            assert_same(c, w)?;
        }
        let mut joined: Vec<Column> = whole.iter().map(Column::empty_like).collect();
        let mut dec = wire::StreamDecoder::with_morsel_capacity(&enc, chunk);
        while dec.remaining() > 0 {
            let before = dec.remaining();
            let morsel = dec.take_columns(chunk);
            prop_assert_eq!(before - dec.remaining(), chunk.min(before));
            for (j, m) in joined.iter_mut().zip(&morsel) {
                prop_assert_eq!(std::mem::discriminant(j), std::mem::discriminant(m));
                prop_assert_eq!(m.len(), chunk.min(before));
                j.append_range(m, 0, m.len());
            }
        }
        for (j, w) in joined.iter().zip(&whole) {
            assert_same(j, w)?;
        }
        // `0` is an unbounded edge: one frame.
        for chunk in [chunk, 0] {
            let stats = enc.stats(chunk);
            prop_assert_eq!(stats.encoded_bytes, enc.encoded_bytes());
            prop_assert_eq!(stats.chunks, chunk_count(n as u64, chunk));
            // Empty frames report no codec series at all (encoded_bytes 0).
            if n > 0 {
                let total: u64 = stats.codec_bytes.iter().map(|(_, b)| *b).sum();
                prop_assert_eq!(
                    total,
                    enc.columns().iter().map(|c| c.encoded_bytes()).sum::<u64>()
                );
            } else {
                prop_assert!(stats.codec_bytes.is_empty());
            }
        }
    }

    /// A gathered column, one part or several, encodes to the bytes of the
    /// same values held as a column of their own, is sized alike, and
    /// decodes to them.
    #[test]
    fn gathered_strings_encode_as_their_own_twin(case in gathered_strings()) {
        let (gathered, own) = case;
        let n = own.len();
        let (gathered, own) = ([gathered], [own]);
        let (g, o) = (wire::encode(&gathered, n), wire::encode(&own, n));
        prop_assert_eq!(format!("{g:?}"), format!("{o:?}"));
        let (gm, om) = (wire::measure(&gathered, n), wire::measure(&own, n));
        prop_assert_eq!(gm.columns(), om.columns());
        let (gathered, own) = (&gathered[0], &own[0]);
        prop_assert_eq!(gathered.wire_bytes(), own.wire_bytes());
        prop_assert_eq!(&wire::decode(&g)[0], own);
    }

    /// The sizing-only pass prices an edge exactly as the real encoder
    /// would — byte-for-byte, codec-for-codec — on arbitrary columns. This
    /// is the contract that lets stats-only edges (mediator re-loads, the
    /// final-result hop) skip payload materialization entirely.
    #[test]
    fn measure_matches_encode(edge in edge()) {
        let (cols, chunk) = edge;
        let n = cols[0].len();
        let enc = wire::encode(&cols, n);
        let measured = wire::measure(&cols, n);
        prop_assert_eq!(measured.encoded_bytes(), enc.encoded_bytes());
        prop_assert_eq!(measured.codec_bytes(), enc.codec_bytes());
        for chunk in [chunk, 0] {
            let es = enc.stats(chunk);
            let ms = measured.stats(chunk);
            prop_assert_eq!(ms.encoded_bytes, es.encoded_bytes);
            prop_assert_eq!(ms.chunks, es.chunks);
            prop_assert_eq!(ms.codec_bytes, es.codec_bytes);
        }
        for (col, (codec, len)) in enc.columns().iter().zip(measured.columns()) {
            prop_assert_eq!(*codec, col.codec());
            prop_assert_eq!(wire::COLUMN_HEADER_BYTES + len, col.encoded_bytes());
        }
    }
}
