//! Property test for string columns: random chains of `gather`,
//! `append_gather`, `append_range`, `head` and `empty_like` over columns
//! that hold their own values, gathered columns and gathered columns that
//! read several parts, with NULLs, against a `Vec<Option<String>>` oracle.
//!
//! Every column made along the way must agree with its oracle in length,
//! values, NULLs, `cmp_rows`, `wire_bytes`, `==` (against the same values
//! built as a column of its own), and through `StrCol`'s reads: `get`,
//! `for_each_present`, `nulls`, and a gathered column's `ids` into its
//! `entries`. A gathered column reads at most two entries per row (rows
//! more sparse than that are copied). Appending to a copy must leave the
//! column it was copied from as it was.

use proptest::prelude::*;
use std::sync::Arc;
use xdb_sql::column::{Column, StrCol, TypedCol};
use xdb_sql::value::Value;

type Oracle = Vec<Option<String>>;

/// Few distinct strings, so that different rows (and different ids) name
/// equal strings.
const WORDS: [&str; 6] = ["", "a", "b", "ab", "é", "日本"];

/// A column of its own holding `values`, NULLs included (an all-NULL one
/// too: `Column::from_values` would make that `Mixed`).
fn own(values: &Oracle) -> Column {
    let mut c: TypedCol<Arc<str>> = TypedCol::with_capacity(values.len());
    for v in values {
        match v {
            Some(s) => c.push(Arc::from(s.as_str())),
            None => c.push_null(),
        }
    }
    Column::Str(c.into())
}

fn random_values(rng: &mut TestRng, n: usize) -> Oracle {
    let nulls = rng.below(4); // none, one in two, one in four, one in eight
    (0..n)
        .map(|_| match nulls {
            0 => Some(WORDS[rng.below(6) as usize].to_string()),
            k if rng.below(1 << k) == 0 => None,
            _ => Some(WORDS[rng.below(6) as usize].to_string()),
        })
        .collect()
}

fn random_sel(rng: &mut TestRng, rows: usize) -> Vec<u32> {
    if rows == 0 {
        return Vec::new();
    }
    (0..rng.below(30))
        .map(|_| rng.below(rows as u64) as u32)
        .collect()
}

fn str_col(c: &Column) -> &StrCol {
    match c {
        Column::Str(c) => c,
        other => panic!("not a Str column: {other:?}"),
    }
}

fn value_of(v: &Option<String>) -> Value {
    v.as_deref().map_or(Value::Null, Value::str)
}

/// Everything a reader can see of `col` against `want`.
fn check(col: &Column, want: &Oracle, label: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(col.len(), want.len(), "{} len", label);
    let s = str_col(col);
    prop_assert_eq!(s.len(), want.len(), "{} StrCol len", label);
    prop_assert_eq!(s.nulls().len(), want.len(), "{} bitmap len", label);
    let nulls = want.iter().filter(|v| v.is_none()).count();
    prop_assert_eq!(s.nulls().count_ones(), nulls, "{} null count", label);
    for (i, w) in want.iter().enumerate() {
        prop_assert_eq!(col.value(i), value_of(w), "{} value {}", label, i);
        prop_assert_eq!(col.is_null(i), w.is_none(), "{} is_null {}", label, i);
        prop_assert_eq!(s.nulls().get(i), w.is_none(), "{} null bit {}", label, i);
        prop_assert_eq!(
            s.get(i).map(|a| a.to_string()),
            w.clone(),
            "{} get {}",
            label,
            i
        );
    }
    let mut present = Vec::new();
    s.for_each_present(|a| present.push(a.to_string()));
    let want_present: Vec<String> = want.iter().flatten().cloned().collect();
    prop_assert_eq!(present, want_present, "{} for_each_present", label);
    if let Some(ids) = s.ids() {
        prop_assert_eq!(ids.len(), want.len(), "{} ids", label);
        for (i, w) in want.iter().enumerate() {
            if let Some(w) = w {
                prop_assert!(
                    (ids[i] as usize) < s.entries(),
                    "{} id {} out of range",
                    label,
                    i
                );
                let e = s.entry(ids[i]).map(|a| a.to_string());
                prop_assert_eq!(
                    e.as_deref(),
                    Some(w.as_str()),
                    "{} entry of row {}",
                    label,
                    i
                );
            }
        }
    }
    if s.ids().is_some() {
        // Rows too sparse to read by id were copied.
        prop_assert!(
            s.entries() <= 2 * want.len(),
            "{} reads {} entries for {} rows",
            label,
            s.entries(),
            want.len()
        );
    }
    let values: Vec<Value> = want.iter().map(value_of).collect();
    for i in 0..want.len() {
        for j in 0..want.len() {
            prop_assert_eq!(
                col.cmp_rows(i, j),
                values[i].total_cmp(&values[j]),
                "{} cmp_rows {} {}",
                label,
                i,
                j
            );
        }
    }
    // The row-major model: a NULL costs one byte, a string four plus its
    // length.
    let wire: u64 = want
        .iter()
        .map(|v| v.as_ref().map_or(1, |s| 4 + s.len() as u64))
        .sum();
    prop_assert_eq!(col.wire_bytes(), wire, "{} wire_bytes", label);
    prop_assert!(*col == own(want), "{} == its own-valued twin", label);
    Ok(())
}

/// One random chain from `seed`: up to three sources, then `steps`
/// operations, each on columns made before it.
fn chain(seed: u64, steps: usize) -> Result<(), TestCaseError> {
    let mut rng = TestRng::deterministic(seed);
    let mut pool: Vec<(Column, Oracle)> = Vec::new();
    for _ in 0..1 + rng.below(3) {
        let n = match rng.below(4) {
            0 => rng.below(3) as usize,
            1 => 64 + rng.below(80) as usize, // bitmaps past one word
            _ => rng.below(40) as usize,
        };
        let values = random_values(&mut rng, n);
        pool.push((own(&values), values));
    }
    for step in 0..steps {
        let a = rng.below(pool.len() as u64) as usize;
        let b = rng.below(pool.len() as u64) as usize;
        let (src, src_want) = pool[b].clone();
        let before = pool[a].clone();
        let (col, want) = match rng.below(6) {
            0 => {
                let sel = random_sel(&mut rng, src.len());
                let want = sel.iter().map(|&i| src_want[i as usize].clone()).collect();
                (src.gather(&sel), want)
            }
            1 => {
                let n = rng.below(src.len() as u64 + 3) as usize;
                (src.head(n), src_want[..n.min(src.len())].to_vec())
            }
            2 => {
                let (mut dst, mut want) = pool[a].clone();
                let sel = random_sel(&mut rng, src.len());
                dst.append_gather(&src, &sel);
                want.extend(sel.iter().map(|&i| src_want[i as usize].clone()));
                (dst, want)
            }
            3 => {
                let (mut dst, mut want) = pool[a].clone();
                let start = rng.below(src.len() as u64 + 1) as usize;
                let len = rng.below((src.len() - start) as u64 + 1) as usize;
                dst.append_range(&src, start, len);
                want.extend_from_slice(&src_want[start..start + len]);
                (dst, want)
            }
            4 => {
                // Two sources into one empty column: a multi-part column
                // whenever the sources differ.
                let (other, other_want) = pool[a].clone();
                let mut dst = src.empty_like();
                let (s1, s2) = (
                    random_sel(&mut rng, src.len()),
                    random_sel(&mut rng, other.len()),
                );
                dst.append_gather(&src, &s1);
                dst.append_gather(&other, &s2);
                dst.append_range(&src, 0, src.len());
                let mut want: Oracle = s1.iter().map(|&i| src_want[i as usize].clone()).collect();
                want.extend(s2.iter().map(|&i| other_want[i as usize].clone()));
                want.extend_from_slice(&src_want);
                (dst, want)
            }
            _ => {
                let mut dst = src.empty_like();
                dst.append_range(&src, 0, src.len());
                (dst, src_want.clone())
            }
        };
        let label = format!("seed {seed} step {step}");
        check(&col, &want, &label)?;
        // The column appended to was a copy: what it was copied from has
        // not moved.
        check(&pool[a].0, &before.1, &format!("{label} (copied from)"))?;
        prop_assert!(pool[a].0 == before.0, "{} copy-on-write", label);
        pool.push((col, want));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn chains_match_the_oracle(seed in any::<u64>(), steps in 1usize..10) {
        chain(seed, steps)?;
    }
}

/// What the generator is meant to reach, pinned: rows of a gathered column
/// whose parts sit in another order in the destination (they are added
/// again, after the last entry, as one block), a NULL row of a gathered
/// source, and gathers and appends too sparse to read by id, which copy.
#[test]
fn parts_merge_as_a_block_and_sparse_rows_are_copied() {
    let words = |w: &[Option<&str>]| -> Oracle { w.iter().map(|s| s.map(String::from)).collect() };
    let x = words(&[Some("x0"), None, Some("x2")]);
    let y = words(&[Some("y0"), Some("y1")]);
    let (cx, cy) = (own(&x), own(&y));
    // [y x]: y's entries first, x's from 2.
    let mut yx = cx.empty_like();
    yx.append_gather(&cy, &[1, 0]);
    yx.append_gather(&cx, &[2, 1, 0]);
    assert_eq!(str_col(&yx).entries(), 5);
    // [x]: then the rows of `yx`, whose parts would sit the other way round
    // here, so both are added again: [x y x].
    let mut xy = cx.empty_like();
    xy.append_range(&cx, 0, 3);
    xy.append_range(&yx, 0, yx.len());
    assert_eq!(str_col(&xy).entries(), 8);
    // Now both of `yx`'s parts sit 3 entries on: nothing is added.
    xy.append_gather(&yx, &[4, 3, 0]);
    assert_eq!(str_col(&xy).entries(), 8);
    let want = words(&[
        Some("x0"),
        None,
        Some("x2"),
        Some("y1"),
        Some("y0"),
        Some("x2"),
        None,
        Some("x0"),
        Some("x0"),
        None,
        Some("y1"),
    ]);
    check(&xy, &want, "merged").unwrap();
    let head = xy.head(4);
    check(&head, &want[..4].to_vec(), "head of a multi-part column").unwrap();
    assert!(
        str_col(&head).ids().is_some(),
        "4 rows over 8 entries are ids"
    );
    // One row of 8 entries, or of a 3-row column, is copied.
    let one = xy.gather(&[4]);
    check(&one, &words(&[Some("y0")]), "sparse gather").unwrap();
    assert!(str_col(&one).ids().is_none(), "a sparse gather copies");
    assert!(str_col(&cx.head(1)).ids().is_none(), "a sparse head copies");
    // A sparse append onto a gathered column copies its rows too.
    let mut copied = yx.clone();
    let many = own(&(0..40).map(|i| Some(format!("m{i}"))).collect());
    copied.append_gather(&many, &[7]);
    let mut want = words(&[Some("y1"), Some("y0"), Some("x2"), None, Some("x0")]);
    want.push(Some("m7".to_string()));
    check(&copied, &want, "sparse append").unwrap();
    assert_eq!(str_col(&copied).entries(), 6);
    check(&yx, &want[..5].to_vec(), "the copied-from column").unwrap();
}

/// Thousands of one-row morsels appended to one column, each morsel its
/// own part (as a stream of single-row chunks makes them), by range and by
/// selection; every third one is the morsel appended just before, which is
/// read where it already is. An append reads only the newest parts, so
/// this stays linear in the rows.
#[test]
fn thousands_of_one_row_morsels_append_reading_only_the_newest_parts() {
    const MORSELS: usize = 6000;
    let mut rng = TestRng::deterministic(44);
    let morsels: Vec<(Column, Oracle)> = (0..MORSELS)
        .map(|_| {
            let v = random_values(&mut rng, 1);
            (own(&v), v)
        })
        .collect();
    let mut col = morsels[0].0.empty_like();
    let mut want = Oracle::new();
    for i in 0..MORSELS {
        let (m, v) = match i % 3 {
            2 => &morsels[i - 1],
            _ => &morsels[i],
        };
        match i % 2 {
            0 => col.append_range(m, 0, 1),
            _ => col.append_gather(m, &[0]),
        }
        want.extend_from_slice(v);
    }
    let s = str_col(&col);
    assert!(s.ids().is_some(), "one-row morsels are read by id");
    assert!(s.entries() <= 2 * want.len(), "{} entries", s.entries());
    assert_eq!(
        s.entries(),
        MORSELS / 3 * 2,
        "a morsel appended again is reused"
    );
    for (i, w) in want.iter().enumerate() {
        assert_eq!(col.value(i), value_of(w), "row {i}");
    }
    assert!(col == own(&want), "== its own-valued twin");
    let wire: u64 = want
        .iter()
        .map(|v| v.as_ref().map_or(1, |s| 4 + s.len() as u64))
        .sum();
    assert_eq!(col.wire_bytes(), wire);
}
