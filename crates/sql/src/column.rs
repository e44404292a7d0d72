//! Columnar storage primitives: typed column vectors with null bitmaps,
//! a builder that infers the physical layout from the values it sees, and a
//! pre-lowered name → position map (`SchemaIndex`) so column resolution pays
//! for case-insensitivity exactly once.
//!
//! The executor stores every materialized relation as a `Vec<Column>`. A
//! column preserves the *exact* `Value` variants it was built from —
//! `Int(7)` and `Float(7.0)` compare and hash equal but display differently,
//! so a column that mixes variants (possible for expression outputs) falls
//! back to the `Mixed` layout instead of coercing.

use crate::ast::lower_name;
use crate::value::{DataType, Value};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

// ------------------------------------------------------------------ Bitmap

/// A packed bitmap; bit `i` set means row `i` is NULL.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
    ones: usize,
}

impl Bitmap {
    pub(crate) fn with_capacity(cap: usize) -> Bitmap {
        Bitmap {
            words: Vec::with_capacity(cap.div_ceil(64)),
            len: 0,
            ones: 0,
        }
    }

    pub(crate) fn push(&mut self, bit: bool) {
        let word = self.len / 64;
        if word == self.words.len() {
            self.words.push(0);
        }
        if bit {
            self.words[word] |= 1u64 << (self.len % 64);
            self.ones += 1;
        }
        self.len += 1;
    }

    /// Make room for `n` more bits.
    fn reserve(&mut self, n: usize) {
        let words = (self.len + n).div_ceil(64);
        self.words.reserve(words.saturating_sub(self.words.len()));
    }

    /// Append `n` clear bits.
    pub fn push_zeros(&mut self, n: usize) {
        self.len += n;
        self.words.resize(self.len.div_ceil(64), 0);
    }

    /// Append bits `start..start + len` of `src`.
    fn extend_range(&mut self, src: &Bitmap, start: usize, len: usize) {
        if src.none_set() {
            self.push_zeros(len);
        } else {
            self.reserve(len);
            (start..start + len).for_each(|i| self.push(src.get(i)));
        }
    }

    /// Append the bits of `src` selected by `sel`, in `sel` order.
    fn extend_gather(&mut self, src: &Bitmap, sel: &[u32]) {
        if src.none_set() {
            self.push_zeros(sel.len());
        } else {
            self.reserve(sel.len());
            sel.iter().for_each(|&i| self.push(src.get(i as usize)));
        }
    }

    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of set (NULL) bits.
    pub fn count_ones(&self) -> usize {
        self.ones
    }

    /// True if no bit is set — lets kernels skip per-row null checks.
    pub fn none_set(&self) -> bool {
        self.ones == 0
    }
}

// ---------------------------------------------------------------- TypedCol

/// A typed vector plus its null bitmap. `data[i]` holds a placeholder
/// (default value) wherever `nulls.get(i)` is set.
#[derive(Debug, Clone, PartialEq)]
pub struct TypedCol<T> {
    pub data: Vec<T>,
    pub nulls: Bitmap,
}

impl<T: Clone + Default> TypedCol<T> {
    pub fn with_capacity(cap: usize) -> TypedCol<T> {
        TypedCol {
            data: Vec::with_capacity(cap),
            nulls: Bitmap::with_capacity(cap),
        }
    }

    pub fn push(&mut self, v: T) {
        self.data.push(v);
        self.nulls.push(false);
    }

    pub fn push_null(&mut self) {
        self.data.push(T::default());
        self.nulls.push(true);
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    #[inline]
    pub(crate) fn is_null(&self, i: usize) -> bool {
        self.nulls.get(i)
    }

    /// `Some(&data[i])` unless row `i` is NULL.
    #[inline]
    pub fn get(&self, i: usize) -> Option<&T> {
        if self.nulls.get(i) {
            None
        } else {
            Some(&self.data[i])
        }
    }

    fn gather(&self, sel: &[u32]) -> TypedCol<T> {
        let mut out = TypedCol::with_capacity(sel.len());
        out.append_gather(self, sel);
        out
    }

    fn head(&self, n: usize) -> TypedCol<T> {
        let n = n.min(self.len());
        let mut out = TypedCol::with_capacity(n);
        out.append_range(self, 0, n);
        out
    }

    /// Append rows `start..start + len` of `other`, preserving nulls and
    /// placeholder values exactly.
    fn append_range(&mut self, other: &TypedCol<T>, start: usize, len: usize) {
        if other.nulls.none_set() {
            self.data.extend_from_slice(&other.data[start..start + len]);
            self.nulls.push_zeros(len);
        } else {
            self.data.reserve(len);
            self.nulls.reserve(len);
            for i in start..start + len {
                if other.nulls.get(i) {
                    self.push_null();
                } else {
                    self.data.push(other.data[i].clone());
                    self.nulls.push(false);
                }
            }
        }
    }

    /// Append the rows of `other` selected by `sel`, in `sel` order,
    /// preserving nulls exactly.
    fn append_gather(&mut self, other: &TypedCol<T>, sel: &[u32]) {
        // Either way room for `sel.len()` rows is made first, so that into
        // an empty column this allocates as `gather` does.
        if other.nulls.none_set() {
            let data = &other.data;
            self.data
                .extend(sel.iter().map(|&i| data[i as usize].clone()));
            self.nulls.push_zeros(sel.len());
        } else {
            self.data.reserve(sel.len());
            self.nulls.reserve(sel.len());
            for &i in sel {
                if other.nulls.get(i as usize) {
                    self.push_null();
                } else {
                    self.data.push(other.data[i as usize].clone());
                    self.nulls.push(false);
                }
            }
        }
    }
}

// ------------------------------------------------------------------ StrCol

/// The strings of a column that holds its own values.
type Strings = TypedCol<Arc<str>>;

/// A gathered string column reads at most this many entries per row:
/// rows that would read their source more sparsely are copied instead, so
/// a gathered column keeps at most twice as many strings alive as it has
/// rows.
const ENTRIES_PER_ROW: usize = 2;

/// A string column. Nothing outside this module can tell its two states
/// apart:
/// - one that holds its own values (loaded, decoded, built, or gathered
///   sparsely) is a [`TypedCol`] like every other layout;
/// - one that was gathered (`gather`, `append_gather`, `append_range`,
///   `head`) densely holds a `u32` id per row into the *entries* of the
///   columns its rows came from, its *parts*, plus its own null bitmap.
///
/// So gathering strings copies ids, not `Arc`s, and dropping a gathered
/// column decrements one reference count per part, not one per cell. A
/// NULL row's id is never read; every other row's id names a present
/// entry.
#[derive(Debug, Clone)]
pub struct StrCol(Rep);

#[derive(Debug, Clone)]
enum Rep {
    Own(Arc<Strings>),
    Ids(Arc<Gathered>),
}

#[derive(Debug, Clone, Default)]
struct Gathered {
    ids: Vec<u32>,
    nulls: Bitmap,
    parts: Parts,
}

/// The columns a gathered column reads, in order, each with the id of its
/// first entry: their rows, end to end, are its entries. The first two sit
/// inline, so that a column of one part, or of two (a join's output over a
/// probe side that arrived in two morsels), allocates no list. No part is
/// empty.
#[derive(Debug, Clone, Default)]
struct Parts {
    inline: [Option<(u32, Arc<Strings>)>; 2],
    /// The third part on.
    more: Vec<(u32, Arc<Strings>)>,
}

/// How many of a column's newest parts [`Parts::find`] reads. A column
/// appended many morsels (a filtered stream read at chunk 1) thus pays a
/// bounded search per append, not one that grows with every morsel; a part
/// older than these is added again, which costs entries, not rows.
const SEARCHED_PARTS: usize = 8;

/// Where a source's parts go among a destination's: the one offset that
/// turns the source's ids into the destination's, and the entries that
/// the parts it lacks add.
struct Place {
    shift: u32,
    added: usize,
    /// Whether the source's parts that the destination has are read
    /// where they are; if not, all of them are added again.
    reuse: bool,
}

impl Parts {
    /// The one part of a column that holds its own values.
    fn one(c: &Arc<Strings>) -> Parts {
        Parts {
            inline: [(!c.is_empty()).then(|| (0, Arc::clone(c))), None],
            more: Vec::new(),
        }
    }

    fn iter(&self) -> impl DoubleEndedIterator<Item = &(u32, Arc<Strings>)> {
        self.inline.iter().flatten().chain(&self.more)
    }

    fn entries(&self) -> usize {
        self.iter()
            .next_back()
            .map_or(0, |(start, p)| *start as usize + p.len())
    }

    /// The id of `part`'s first entry if it is one of the
    /// [`SEARCHED_PARTS`] newest parts that start below `end`: rows are
    /// mostly appended from the morsel that arrived last.
    fn find(&self, part: &Arc<Strings>, end: usize) -> Option<u32> {
        self.iter()
            .rev()
            .filter(|(start, _)| (*start as usize) < end)
            .take(SEARCHED_PARTS)
            .find(|(_, p)| Arc::ptr_eq(p, part))
            .map(|(start, _)| *start)
    }

    /// Where `src`'s parts would go: each where it already is (by
    /// `Arc::ptr_eq`), the others after the last entry, in order. When
    /// that moves some of them by different offsets, they all go after the
    /// last entry instead, as one block (a part may then appear twice).
    fn place(&self, src: &Parts) -> Place {
        let end = self.entries();
        let (mut next, mut shift, mut uniform) = (end, None, true);
        for (start, p) in src.iter() {
            let at = self.find(p, end).unwrap_or_else(|| {
                next += p.len();
                (next - p.len()) as u32
            });
            let s = at.wrapping_sub(*start);
            uniform &= *shift.get_or_insert(s) == s;
        }
        match uniform {
            true => Place {
                shift: shift.unwrap_or(0),
                added: next - end,
                reuse: true,
            },
            false => Place {
                shift: end as u32,
                added: src.entries(),
                reuse: false,
            },
        }
    }

    /// Add `part` after the last entry.
    fn push(&mut self, part: &Arc<Strings>) {
        debug_assert!(!part.is_empty());
        let start = self.entries();
        u32::try_from(start + part.len()).expect("a string column reads fewer than 2^32 entries");
        let added = (start as u32, Arc::clone(part));
        match self.inline.iter_mut().find(|slot| slot.is_none()) {
            Some(slot) => *slot = Some(added),
            None => self.more.push(added),
        }
    }

    /// Make `src`'s parts parts of these, as [`Parts::place`] places
    /// them, and return the offset that turns its ids into these.
    fn merge(&mut self, src: &Parts) -> u32 {
        let end = self.entries();
        let place = self.place(src);
        for (_, p) in src.iter() {
            if !place.reuse || self.find(p, end).is_none() {
                self.push(p);
            }
        }
        place.shift
    }

    /// The part holding entry `id`, and the entry's row in it.
    #[inline]
    fn locate(&self, id: u32) -> (&Strings, usize) {
        let (start, p) = match (&self.inline, self.more.first()) {
            ([Some(a), None], _) => a,
            ([Some(a), Some(b)], more) if more.is_none_or(|(c, _)| id < *c) => {
                if id < b.0 {
                    a
                } else {
                    b
                }
            }
            _ => &self.more[self.more.partition_point(|(start, _)| *start <= id) - 1],
        };
        (p, (id - start) as usize)
    }

    /// Entry `id`, which must be present.
    #[inline]
    fn present(&self, id: u32) -> &Arc<str> {
        let (p, row) = self.locate(id);
        &p.data[row]
    }
}

impl Strings {
    /// Copy the strings of `rows` of `src`, NULLs as NULLs.
    fn push_rows(&mut self, src: &StrCol, rows: impl ExactSizeIterator<Item = usize>) {
        self.data.reserve(rows.len());
        self.nulls.reserve(rows.len());
        for i in rows {
            match src.get(i) {
                Some(s) => self.push(Arc::clone(s)),
                None => self.push_null(),
            }
        }
    }
}

impl Gathered {
    fn with_capacity(cap: usize) -> Gathered {
        Gathered {
            ids: Vec::with_capacity(cap),
            nulls: Bitmap::with_capacity(cap),
            parts: Parts::default(),
        }
    }

    /// Append rows `start..start + len` of `src`, by id.
    fn append_range(&mut self, src: &StrCol, start: usize, len: usize) {
        let shift = self.parts.merge(&src.parts());
        match src.ids() {
            None => self
                .ids
                .extend((start..start + len).map(|i| (i as u32).wrapping_add(shift))),
            Some(ids) if shift == 0 => self.ids.extend_from_slice(&ids[start..start + len]),
            Some(ids) => self.ids.extend(
                ids[start..start + len]
                    .iter()
                    .map(|id| id.wrapping_add(shift)),
            ),
        }
        self.nulls.extend_range(src.nulls(), start, len);
    }

    /// Append the rows of `src` selected by `sel`, in `sel` order, by id.
    fn append_gather(&mut self, src: &StrCol, sel: &[u32]) {
        let shift = self.parts.merge(&src.parts());
        match src.ids() {
            None => self.ids.extend(sel.iter().map(|&i| i.wrapping_add(shift))),
            Some(ids) => self
                .ids
                .extend(sel.iter().map(|&i| ids[i as usize].wrapping_add(shift))),
        }
        self.nulls.extend_gather(src.nulls(), sel);
    }
}

impl From<Arc<Strings>> for StrCol {
    /// A column that holds its own values.
    fn from(c: Arc<Strings>) -> StrCol {
        StrCol(Rep::Own(c))
    }
}

impl From<Strings> for StrCol {
    fn from(c: Strings) -> StrCol {
        StrCol::from(Arc::new(c))
    }
}

impl StrCol {
    /// An empty gathered column: appending to it densely copies ids.
    fn empty_gathered() -> StrCol {
        StrCol(Rep::Ids(Arc::new(Gathered::default())))
    }

    pub fn len(&self) -> usize {
        match &self.0 {
            Rep::Own(c) => c.len(),
            Rep::Ids(g) => g.ids.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bit `i` set means row `i` is NULL.
    pub fn nulls(&self) -> &Bitmap {
        match &self.0 {
            Rep::Own(c) => &c.nulls,
            Rep::Ids(g) => &g.nulls,
        }
    }

    /// Row `i`'s string, `None` when it is NULL.
    #[inline]
    pub fn get(&self, i: usize) -> Option<&Arc<str>> {
        match &self.0 {
            Rep::Own(c) => c.get(i),
            Rep::Ids(g) if g.nulls.get(i) => None,
            Rep::Ids(g) => Some(g.parts.present(g.ids[i])),
        }
    }

    /// Visit the present strings in row order, NULLs skipped.
    pub fn for_each_present<'a>(&'a self, mut f: impl FnMut(&'a Arc<str>)) {
        match &self.0 {
            Rep::Own(c) if c.nulls.none_set() => c.data.iter().for_each(f),
            Rep::Own(c) => (0..c.len()).filter_map(|i| c.get(i)).for_each(f),
            Rep::Ids(g) => {
                let present = |i: &usize| !g.nulls.get(*i);
                match &g.parts.inline {
                    [Some((_, p)), None] => (0..g.ids.len())
                        .filter(present)
                        .for_each(|i| f(&p.data[g.ids[i] as usize])),
                    _ => (0..g.ids.len())
                        .filter(present)
                        .for_each(|i| f(g.parts.present(g.ids[i]))),
                }
            }
        }
    }

    /// A column that holds its own values: all of them, a NULL row's a
    /// placeholder; `None` for a gathered column. Lets a row loop test
    /// the strings where they lie.
    pub fn values(&self) -> Option<&[Arc<str>]> {
        match &self.0 {
            Rep::Own(c) => Some(&c.data),
            Rep::Ids(_) => None,
        }
    }

    /// A gathered column's row ids into its entries (see
    /// [`StrCol::entries`]); `None` for a column that holds its own
    /// values. A NULL row's id means nothing.
    pub fn ids(&self) -> Option<&[u32]> {
        match &self.0 {
            Rep::Own(_) => None,
            Rep::Ids(g) => Some(&g.ids),
        }
    }

    /// How many entries the column reads: its rows when it holds its own
    /// values, its parts' rows end to end when it was gathered.
    pub fn entries(&self) -> usize {
        match &self.0 {
            Rep::Own(c) => c.len(),
            Rep::Ids(g) => g.parts.entries(),
        }
    }

    /// Entry `id`'s string, `None` where the entry is NULL.
    #[inline]
    pub fn entry(&self, id: u32) -> Option<&Arc<str>> {
        match &self.0 {
            Rep::Own(c) => c.get(id as usize),
            Rep::Ids(g) => {
                let (p, row) = g.parts.locate(id);
                p.get(row)
            }
        }
    }

    /// The columns this one reads: itself when it holds its own values.
    fn parts(&self) -> std::borrow::Cow<'_, Parts> {
        match &self.0 {
            Rep::Own(c) => std::borrow::Cow::Owned(Parts::one(c)),
            Rep::Ids(g) => std::borrow::Cow::Borrowed(&g.parts),
        }
    }

    /// Whether `rows` more rows of `src` are read by id: only while this
    /// column, with them, reads at most [`ENTRIES_PER_ROW`] entries per
    /// row. Otherwise they are copied.
    fn reads_by_id(&self, src: &StrCol, rows: usize) -> bool {
        let mine = self.parts();
        let added = mine.place(&src.parts()).added;
        mine.entries() + added <= ENTRIES_PER_ROW * (self.len() + rows)
    }

    /// An empty column for `rows` rows of `src`: one that holds its own
    /// values when they would be copied, else gathered (with no rows, it
    /// is ready to take rows by id, as `empty_like` is).
    fn for_rows_of(src: &StrCol, rows: usize) -> StrCol {
        if rows == 0 || src.entries() <= ENTRIES_PER_ROW * rows {
            StrCol(Rep::Ids(Arc::new(Gathered::with_capacity(rows))))
        } else {
            StrCol::from(Strings::with_capacity(rows))
        }
    }

    fn gather(&self, sel: &[u32]) -> StrCol {
        let mut out = StrCol::for_rows_of(self, sel.len());
        out.append_gather(self, sel);
        out
    }

    fn head(&self, n: usize) -> StrCol {
        let n = n.min(self.len());
        let mut out = StrCol::for_rows_of(self, n);
        out.append_range(self, 0, n);
        out
    }

    /// The gathered state to append to: a column that holds its own values
    /// first becomes the gathered column of all its rows.
    fn gathered_mut(&mut self) -> &mut Gathered {
        if let Rep::Own(c) = &self.0 {
            let mut g = Gathered::with_capacity(c.len());
            if !c.is_empty() {
                g.append_range(self, 0, c.len());
            }
            self.0 = Rep::Ids(Arc::new(g));
        }
        match &mut self.0 {
            Rep::Ids(g) => Arc::make_mut(g),
            Rep::Own(_) => unreachable!("a column that holds its own values was converted above"),
        }
    }

    /// The values to copy `more` rows onto: a gathered column first
    /// copies the strings of its own rows.
    fn own_mut(&mut self, more: usize) -> &mut Strings {
        if let Rep::Ids(g) = &self.0 {
            let mut own = Strings::with_capacity(g.ids.len() + more);
            own.push_rows(self, 0..g.ids.len());
            self.0 = Rep::Own(Arc::new(own));
        }
        match &mut self.0 {
            Rep::Own(c) => Arc::make_mut(c),
            Rep::Ids(_) => unreachable!("a gathered column was copied above"),
        }
    }

    fn append_range(&mut self, other: &StrCol, start: usize, len: usize) {
        if len == 0 {
            return;
        }
        if self.reads_by_id(other, len) {
            self.gathered_mut().append_range(other, start, len);
        } else {
            match &other.0 {
                Rep::Own(c) => self.own_mut(len).append_range(c, start, len),
                Rep::Ids(_) => self.own_mut(len).push_rows(other, start..start + len),
            }
        }
    }

    fn append_gather(&mut self, other: &StrCol, sel: &[u32]) {
        if sel.is_empty() {
            return;
        }
        if self.reads_by_id(other, sel.len()) {
            self.gathered_mut().append_gather(other, sel);
        } else {
            match &other.0 {
                Rep::Own(c) => self.own_mut(sel.len()).append_gather(c, sel),
                Rep::Ids(_) => {
                    let rows = sel.iter().map(|&i| i as usize);
                    self.own_mut(sel.len()).push_rows(other, rows);
                }
            }
        }
    }

    /// Simulated wire size: 4 bytes plus the payload per present string,
    /// 1 byte per NULL.
    fn wire_bytes(&self) -> u64 {
        let mut total = self.nulls().count_ones() as u64;
        self.for_each_present(|s| total += 4 + s.len() as u64);
        total
    }
}

// ------------------------------------------------------------------ Column

/// A materialized column. Typed layouts are `Arc`-shared so projection and
/// scan reuse are pointer copies (a gathered [`StrCol`] shares its ids the
/// same way); `Mixed` preserves arbitrary `Value` sequences (mixed
/// Int/Float expression outputs, all-NULL columns).
#[derive(Debug, Clone)]
pub enum Column {
    Int(Arc<TypedCol<i64>>),
    Float(Arc<TypedCol<f64>>),
    Str(StrCol),
    Date(Arc<TypedCol<i32>>),
    Bool(Arc<TypedCol<bool>>),
    Mixed(Arc<Vec<Value>>),
}

impl Column {
    pub fn from_values<I: IntoIterator<Item = Value>>(values: I) -> Column {
        let it = values.into_iter();
        let mut b = ColumnBuilder::with_capacity(it.size_hint().0);
        for v in it {
            b.push(v);
        }
        b.finish()
    }

    pub fn empty_of(ty: DataType) -> Column {
        match ty {
            DataType::Int => Column::Int(Arc::new(TypedCol::with_capacity(0))),
            DataType::Float => Column::Float(Arc::new(TypedCol::with_capacity(0))),
            DataType::Str => Column::Str(TypedCol::with_capacity(0).into()),
            DataType::Date => Column::Date(Arc::new(TypedCol::with_capacity(0))),
            DataType::Bool => Column::Bool(Arc::new(TypedCol::with_capacity(0))),
        }
    }

    pub fn len(&self) -> usize {
        match self {
            Column::Int(c) => c.len(),
            Column::Float(c) => c.len(),
            Column::Str(c) => c.len(),
            Column::Date(c) => c.len(),
            Column::Bool(c) => c.len(),
            Column::Mixed(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        match self {
            Column::Int(c) => c.is_null(i),
            Column::Float(c) => c.is_null(i),
            Column::Str(c) => c.nulls().get(i),
            Column::Date(c) => c.is_null(i),
            Column::Bool(c) => c.is_null(i),
            Column::Mixed(v) => v[i].is_null(),
        }
    }

    /// Reconstruct the `Value` at row `i` — exact variant preservation.
    #[inline]
    pub fn value(&self, i: usize) -> Value {
        match self {
            Column::Int(c) => c.get(i).map_or(Value::Null, |v| Value::Int(*v)),
            Column::Float(c) => c.get(i).map_or(Value::Null, |v| Value::Float(*v)),
            Column::Str(c) => c.get(i).map_or(Value::Null, |v| Value::Str(v.clone())),
            Column::Date(c) => c.get(i).map_or(Value::Null, |v| Value::Date(*v)),
            Column::Bool(c) => c.get(i).map_or(Value::Null, |v| Value::Bool(*v)),
            Column::Mixed(v) => v[i].clone(),
        }
    }

    pub fn iter(&self) -> impl Iterator<Item = Value> + '_ {
        (0..self.len()).map(|i| self.value(i))
    }

    /// New column holding the rows selected by `sel`, in `sel` order.
    pub fn gather(&self, sel: &[u32]) -> Column {
        match self {
            Column::Int(c) => Column::Int(Arc::new(c.gather(sel))),
            Column::Float(c) => Column::Float(Arc::new(c.gather(sel))),
            Column::Str(c) => Column::Str(c.gather(sel)),
            Column::Date(c) => Column::Date(Arc::new(c.gather(sel))),
            Column::Bool(c) => Column::Bool(Arc::new(c.gather(sel))),
            Column::Mixed(v) => Column::Mixed(Arc::new(
                sel.iter().map(|&i| v[i as usize].clone()).collect(),
            )),
        }
    }

    /// First `n` rows; a cheap `Arc` clone when `n >= len`.
    pub fn head(&self, n: usize) -> Column {
        if n >= self.len() {
            return self.clone();
        }
        match self {
            Column::Int(c) => Column::Int(Arc::new(c.head(n))),
            Column::Float(c) => Column::Float(Arc::new(c.head(n))),
            Column::Str(c) => Column::Str(c.head(n)),
            Column::Date(c) => Column::Date(Arc::new(c.head(n))),
            Column::Bool(c) => Column::Bool(Arc::new(c.head(n))),
            Column::Mixed(v) => Column::Mixed(Arc::new(v[..n].to_vec())),
        }
    }

    /// An empty column of the same variant as `self` (all-NULL and
    /// `Mixed` layouts included), ready for [`Column::append_range`].
    pub fn empty_like(&self) -> Column {
        match self {
            Column::Int(_) => Column::Int(Arc::new(TypedCol::with_capacity(0))),
            Column::Float(_) => Column::Float(Arc::new(TypedCol::with_capacity(0))),
            Column::Str(_) => Column::Str(StrCol::empty_gathered()),
            Column::Date(_) => Column::Date(Arc::new(TypedCol::with_capacity(0))),
            Column::Bool(_) => Column::Bool(Arc::new(TypedCol::with_capacity(0))),
            Column::Mixed(_) => Column::Mixed(Arc::new(Vec::new())),
        }
    }

    /// Append rows `start..start + len` of `other` (same variant) onto
    /// this column, preserving the layout exactly — the morsel-wise
    /// ingestion primitive for streamed edges. Panics on variant mismatch.
    pub fn append_range(&mut self, other: &Column, start: usize, len: usize) {
        match (self, other) {
            (Column::Int(a), Column::Int(b)) => Arc::make_mut(a).append_range(b, start, len),
            (Column::Float(a), Column::Float(b)) => Arc::make_mut(a).append_range(b, start, len),
            (Column::Str(a), Column::Str(b)) => a.append_range(b, start, len),
            (Column::Date(a), Column::Date(b)) => Arc::make_mut(a).append_range(b, start, len),
            (Column::Bool(a), Column::Bool(b)) => Arc::make_mut(a).append_range(b, start, len),
            (Column::Mixed(a), Column::Mixed(b)) => {
                Arc::make_mut(a).extend_from_slice(&b[start..start + len]);
            }
            _ => panic!("append_range: column variant mismatch"),
        }
    }

    /// Append the rows of `other` (same variant) selected by `sel`, in
    /// `sel` order — the fused filter half of morsel-wise ingestion
    /// (gather and concatenate in one pass, no intermediate column).
    /// Panics on variant mismatch.
    pub fn append_gather(&mut self, other: &Column, sel: &[u32]) {
        match (self, other) {
            (Column::Int(a), Column::Int(b)) => Arc::make_mut(a).append_gather(b, sel),
            (Column::Float(a), Column::Float(b)) => Arc::make_mut(a).append_gather(b, sel),
            (Column::Str(a), Column::Str(b)) => a.append_gather(b, sel),
            (Column::Date(a), Column::Date(b)) => Arc::make_mut(a).append_gather(b, sel),
            (Column::Bool(a), Column::Bool(b)) => Arc::make_mut(a).append_gather(b, sel),
            (Column::Mixed(a), Column::Mixed(b)) => {
                Arc::make_mut(a).extend(sel.iter().map(|&i| b[i as usize].clone()));
            }
            _ => panic!("append_gather: column variant mismatch"),
        }
    }

    /// Simulated wire size: per-value payload bytes, no framing (the
    /// relation adds 4 bytes per row). Totals match the row-major model.
    pub fn wire_bytes(&self) -> u64 {
        match self {
            // NULL costs 1 byte; present values cost their payload size.
            Column::Int(c) => typed_wire(c, 8),
            Column::Float(c) => typed_wire(c, 8),
            Column::Date(c) => typed_wire(c, 4),
            Column::Bool(c) => typed_wire(c, 1),
            Column::Str(c) => c.wire_bytes(),
            Column::Mixed(v) => v.iter().map(Value::wire_size).sum(),
        }
    }

    /// Total order between rows `i` and `j` of this column, matching
    /// `Value::total_cmp` (NULLs last, incomparables by type tag).
    #[inline]
    pub fn cmp_rows(&self, i: usize, j: usize) -> Ordering {
        match self {
            Column::Int(c) => match (c.get(i), c.get(j)) {
                (Some(a), Some(b)) => a.cmp(b),
                (a, b) => null_cmp(a.is_none(), b.is_none()),
            },
            Column::Float(c) => match (c.get(i), c.get(j)) {
                // NaN falls through sql_cmp to the type-tag tiebreak, which
                // is Equal for same-variant values — mirror that here.
                (Some(a), Some(b)) => a.partial_cmp(b).unwrap_or(Ordering::Equal),
                (a, b) => null_cmp(a.is_none(), b.is_none()),
            },
            Column::Str(c) => match (c.get(i), c.get(j)) {
                (Some(a), Some(b)) => a.as_ref().cmp(b.as_ref()),
                (a, b) => null_cmp(a.is_none(), b.is_none()),
            },
            Column::Date(c) => match (c.get(i), c.get(j)) {
                (Some(a), Some(b)) => a.cmp(b),
                (a, b) => null_cmp(a.is_none(), b.is_none()),
            },
            Column::Bool(c) => match (c.get(i), c.get(j)) {
                (Some(a), Some(b)) => a.cmp(b),
                (a, b) => null_cmp(a.is_none(), b.is_none()),
            },
            Column::Mixed(v) => v[i].total_cmp(&v[j]),
        }
    }

    pub fn as_int(&self) -> Option<&TypedCol<i64>> {
        match self {
            Column::Int(c) => Some(c),
            _ => None,
        }
    }

    pub fn is_mixed(&self) -> bool {
        matches!(self, Column::Mixed(_))
    }
}

#[inline]
fn typed_wire<T>(c: &TypedCol<T>, per_value: u64) -> u64 {
    let nulls = c.nulls.count_ones() as u64;
    nulls + (c.data.len() as u64 - nulls) * per_value
}

#[inline]
fn null_cmp(a_null: bool, b_null: bool) -> Ordering {
    // total_cmp semantics: NULLs sort last; NULL == NULL.
    match (a_null, b_null) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
        (false, false) => unreachable!("both values present"),
    }
}

impl PartialEq for Column {
    /// Element-wise `Value` equality (cross-type Int/Float equality and
    /// bitwise float equality, exactly like row-major comparison did).
    fn eq(&self, other: &Column) -> bool {
        self.len() == other.len() && (0..self.len()).all(|i| self.value(i) == other.value(i))
    }
}

// ----------------------------------------------------------- ColumnBuilder

enum BuildState {
    /// Only NULLs seen so far; the first non-null value fixes the layout.
    Untyped {
        nulls: usize,
    },
    Int(TypedCol<i64>),
    Float(TypedCol<f64>),
    Str(TypedCol<Arc<str>>),
    Date(TypedCol<i32>),
    Bool(TypedCol<bool>),
    Mixed(Vec<Value>),
}

/// Builds a `Column` one value at a time, inferring the layout: the first
/// non-null value picks a typed vector; any later variant mismatch degrades
/// the whole column to `Mixed` (value sequence preserved exactly).
pub struct ColumnBuilder {
    state: BuildState,
    cap: usize,
}

impl Default for ColumnBuilder {
    fn default() -> Self {
        ColumnBuilder::new()
    }
}

impl ColumnBuilder {
    pub(crate) fn new() -> ColumnBuilder {
        ColumnBuilder::with_capacity(0)
    }

    pub fn with_capacity(cap: usize) -> ColumnBuilder {
        ColumnBuilder {
            state: BuildState::Untyped { nulls: 0 },
            cap,
        }
    }

    /// Start a typed column of `ty` with `nulls` leading NULL slots.
    fn typed_with_leading_nulls<T: Clone + Default>(cap: usize, nulls: usize) -> TypedCol<T> {
        let mut c = TypedCol::with_capacity(cap.max(nulls));
        for _ in 0..nulls {
            c.push_null();
        }
        c
    }

    /// Degrade the current typed state to `Mixed`, preserving every value.
    fn degrade(&mut self) -> &mut Vec<Value> {
        let values: Vec<Value> = match &self.state {
            BuildState::Untyped { nulls } => vec![Value::Null; *nulls],
            BuildState::Int(c) => (0..c.len())
                .map(|i| c.get(i).map_or(Value::Null, |v| Value::Int(*v)))
                .collect(),
            BuildState::Float(c) => (0..c.len())
                .map(|i| c.get(i).map_or(Value::Null, |v| Value::Float(*v)))
                .collect(),
            BuildState::Str(c) => (0..c.len())
                .map(|i| c.get(i).map_or(Value::Null, |v| Value::Str(v.clone())))
                .collect(),
            BuildState::Date(c) => (0..c.len())
                .map(|i| c.get(i).map_or(Value::Null, |v| Value::Date(*v)))
                .collect(),
            BuildState::Bool(c) => (0..c.len())
                .map(|i| c.get(i).map_or(Value::Null, |v| Value::Bool(*v)))
                .collect(),
            BuildState::Mixed(_) => unreachable!("already mixed"),
        };
        self.state = BuildState::Mixed(values);
        match &mut self.state {
            BuildState::Mixed(v) => v,
            _ => unreachable!(),
        }
    }

    pub fn push(&mut self, v: Value) {
        match (&mut self.state, v) {
            (BuildState::Untyped { nulls }, Value::Null) => *nulls += 1,
            (BuildState::Untyped { nulls }, v) => {
                let n = *nulls;
                let cap = self.cap;
                self.state = match v {
                    Value::Int(x) => {
                        let mut c = Self::typed_with_leading_nulls(cap, n);
                        c.push(x);
                        BuildState::Int(c)
                    }
                    Value::Float(x) => {
                        let mut c = Self::typed_with_leading_nulls(cap, n);
                        c.push(x);
                        BuildState::Float(c)
                    }
                    Value::Str(x) => {
                        let mut c = Self::typed_with_leading_nulls(cap, n);
                        c.push(x);
                        BuildState::Str(c)
                    }
                    Value::Date(x) => {
                        let mut c = Self::typed_with_leading_nulls(cap, n);
                        c.push(x);
                        BuildState::Date(c)
                    }
                    Value::Bool(x) => {
                        let mut c = Self::typed_with_leading_nulls(cap, n);
                        c.push(x);
                        BuildState::Bool(c)
                    }
                    Value::Null => unreachable!("handled above"),
                };
            }
            (BuildState::Int(c), Value::Int(x)) => c.push(x),
            (BuildState::Int(c), Value::Null) => c.push_null(),
            (BuildState::Float(c), Value::Float(x)) => c.push(x),
            (BuildState::Float(c), Value::Null) => c.push_null(),
            (BuildState::Str(c), Value::Str(x)) => c.push(x),
            (BuildState::Str(c), Value::Null) => c.push_null(),
            (BuildState::Date(c), Value::Date(x)) => c.push(x),
            (BuildState::Date(c), Value::Null) => c.push_null(),
            (BuildState::Bool(c), Value::Bool(x)) => c.push(x),
            (BuildState::Bool(c), Value::Null) => c.push_null(),
            (BuildState::Mixed(vals), v) => vals.push(v),
            (_, v) => self.degrade().push(v),
        }
    }

    pub fn finish(self) -> Column {
        match self.state {
            // All-NULL (or empty) columns carry no type evidence.
            BuildState::Untyped { nulls } => Column::Mixed(Arc::new(vec![Value::Null; nulls])),
            BuildState::Int(c) => Column::Int(Arc::new(c)),
            BuildState::Float(c) => Column::Float(Arc::new(c)),
            BuildState::Str(c) => Column::Str(c.into()),
            BuildState::Date(c) => Column::Date(Arc::new(c)),
            BuildState::Bool(c) => Column::Bool(Arc::new(c)),
            BuildState::Mixed(v) => Column::Mixed(Arc::new(v)),
        }
    }
}

// ------------------------------------------------------------- SchemaIndex

/// Pre-lowered column-name → position map. Built once per relation schema;
/// every later lookup is a single hash probe (no per-call lowering when the
/// query name is already lowercase, which TPC-H names are).
#[derive(Debug, Clone, Default)]
pub struct SchemaIndex {
    map: HashMap<String, usize>,
}

impl SchemaIndex {
    /// First occurrence wins, matching positional `.position()` resolution.
    pub fn build<'a>(names: impl IntoIterator<Item = &'a str>) -> SchemaIndex {
        let mut map = HashMap::new();
        for (i, n) in names.into_iter().enumerate() {
            map.entry(n.to_ascii_lowercase()).or_insert(i);
        }
        SchemaIndex { map }
    }

    pub fn get(&self, name: &str) -> Option<usize> {
        self.map.get(&*lower_name(name)).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_stays_typed_and_roundtrips() {
        let vals = vec![Value::Null, Value::Int(3), Value::Null, Value::Int(-1)];
        let col = Column::from_values(vals.clone());
        assert!(col.as_int().is_some());
        assert_eq!(col.iter().collect::<Vec<_>>(), vals);
        assert_eq!(col.as_int().unwrap().nulls.count_ones(), 2);
    }

    #[test]
    fn builder_degrades_to_mixed_on_variant_mismatch() {
        let vals = vec![Value::Int(1), Value::Float(2.5), Value::Null];
        let col = Column::from_values(vals.clone());
        assert!(col.is_mixed());
        assert_eq!(col.iter().collect::<Vec<_>>(), vals);
    }

    #[test]
    fn all_null_column_is_mixed() {
        let col = Column::from_values(vec![Value::Null, Value::Null]);
        assert!(col.is_mixed());
        assert!(col.is_null(0) && col.is_null(1));
    }

    #[test]
    fn wire_bytes_match_row_major_model() {
        let vals = vec![Value::str("xy"), Value::Null, Value::str("")];
        let col = Column::from_values(vals.clone());
        let expect: u64 = vals.iter().map(Value::wire_size).sum();
        assert_eq!(col.wire_bytes(), expect); // 6 + 1 + 4
        let ints = Column::from_values(vec![Value::Int(1), Value::Null]);
        assert_eq!(ints.wire_bytes(), 9);
    }

    #[test]
    fn gather_and_head_preserve_values() {
        let col = Column::from_values(vec![
            Value::Date(10),
            Value::Null,
            Value::Date(-3),
            Value::Date(7),
        ]);
        let g = col.gather(&[2, 0, 1]);
        assert_eq!(
            g.iter().collect::<Vec<_>>(),
            vec![Value::Date(-3), Value::Date(10), Value::Null]
        );
        let h = col.head(2);
        assert_eq!(h.len(), 2);
        assert_eq!(h.value(1), Value::Null);
    }

    #[test]
    fn append_gather_matches_gather_then_append() {
        let src = Column::from_values(vec![
            Value::str("a"),
            Value::Null,
            Value::str("c"),
            Value::str("d"),
        ]);
        let sel = [3u32, 1, 0];
        let mut direct = src.empty_like();
        direct.append_gather(&src, &sel);
        let mut via_gather = src.empty_like();
        let g = src.gather(&sel);
        via_gather.append_range(&g, 0, g.len());
        assert_eq!(
            direct.iter().collect::<Vec<_>>(),
            via_gather.iter().collect::<Vec<_>>()
        );
        // A NULL-free source is appended in bulk: several appends that
        // straddle bitmap words equal one gather, bitmap included, and a
        // NULL appended after them lands on its own row.
        let ints = Column::from_values((0..150).map(Value::Int));
        let sel: Vec<u32> = (0..150).rev().collect();
        let mut bulk = ints.empty_like();
        bulk.append_gather(&ints, &sel[..70]);
        bulk.append_gather(&ints, &sel[70..]);
        assert_eq!(bulk, ints.gather(&sel));
        bulk.append_gather(&Column::from_values([Value::Null, Value::Int(7)]), &[0, 1]);
        assert_eq!(bulk.value(149), Value::Int(0));
        assert_eq!(bulk.value(150), Value::Null);
        assert_eq!(bulk.value(151), Value::Int(7));
        // Mixed layout goes through the Value path.
        let mixed = Column::Mixed(Arc::new(vec![Value::Int(1), Value::Float(2.0)]));
        let mut out = mixed.empty_like();
        out.append_gather(&mixed, &[1, 0]);
        assert_eq!(
            out.iter().collect::<Vec<_>>(),
            vec![Value::Float(2.0), Value::Int(1)]
        );
    }

    #[test]
    fn cmp_rows_matches_total_cmp() {
        let vals = vec![
            Value::Float(1.5),
            Value::Null,
            Value::Float(f64::NAN),
            Value::Float(-2.0),
        ];
        let col = Column::from_values(vals.clone());
        for i in 0..vals.len() {
            for j in 0..vals.len() {
                assert_eq!(
                    col.cmp_rows(i, j),
                    vals[i].total_cmp(&vals[j]),
                    "rows {i},{j}"
                );
            }
        }
    }

    #[test]
    fn schema_index_is_case_insensitive_first_wins() {
        let idx = SchemaIndex::build(["A", "b", "a"]);
        assert_eq!(idx.get("a"), Some(0));
        assert_eq!(idx.get("A"), Some(0));
        assert_eq!(idx.get("B"), Some(1));
        assert_eq!(idx.get("nope"), None);
    }
}
