//! Runtime values and data types shared by the SQL frontend, the embedded
//! engines, and the XDB middleware.
//!
//! A single `Value` representation is used both for literals inside SQL ASTs
//! and for tuples flowing through executors, so that a query can be rendered
//! back to SQL (delegation) without any lossy conversion.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Logical column types supported by the federation.
///
/// This is deliberately the *intersection* of what PostgreSQL, MariaDB and
/// Hive agree on for analytical workloads: 64-bit integers, double-precision
/// floats, strings, calendar dates and booleans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    Int,
    Float,
    Str,
    Date,
    Bool,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Int => "BIGINT",
            DataType::Float => "DOUBLE",
            DataType::Str => "VARCHAR",
            DataType::Date => "DATE",
            DataType::Bool => "BOOLEAN",
        };
        f.write_str(s)
    }
}

impl DataType {
    /// Parse a SQL type name (as accepted in DDL) into a `DataType`.
    pub(crate) fn parse(name: &str) -> Option<DataType> {
        const NAMES: &[(&str, DataType)] = &[
            ("BIGINT", DataType::Int),
            ("INT", DataType::Int),
            ("INTEGER", DataType::Int),
            ("SMALLINT", DataType::Int),
            ("DOUBLE", DataType::Float),
            ("FLOAT", DataType::Float),
            ("REAL", DataType::Float),
            ("DECIMAL", DataType::Float),
            ("NUMERIC", DataType::Float),
            ("VARCHAR", DataType::Str),
            ("CHAR", DataType::Str),
            ("TEXT", DataType::Str),
            ("STRING", DataType::Str),
            ("DATE", DataType::Date),
            ("BOOLEAN", DataType::Bool),
            ("BOOL", DataType::Bool),
        ];
        crate::keywords::lookup(NAMES, name)
    }
}

/// A runtime value. `Str` uses `Arc<str>` so that cloning tuples during
/// joins/aggregations does not copy string payloads (see the perf-book notes
/// on allocation-heavy inner loops).
#[derive(Debug, Clone)]
pub enum Value {
    Null,
    Int(i64),
    Float(f64),
    Str(Arc<str>),
    /// Days since 1970-01-01 (can be negative).
    Date(i32),
    Bool(bool),
}

impl Value {
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    pub(crate) fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
            Value::Date(_) => Some(DataType::Date),
            Value::Bool(_) => Some(DataType::Bool),
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Size of this value on the (simulated) wire, in bytes. Identical for
    /// every system under test, so cross-system byte *ratios* are exact.
    pub(crate) fn wire_size(&self) -> u64 {
        match self {
            Value::Null => 1,
            Value::Int(_) => 8,
            Value::Float(_) => 8,
            Value::Str(s) => 4 + s.len() as u64,
            Value::Date(_) => 4,
            Value::Bool(_) => 1,
        }
    }

    /// Numeric view used by arithmetic and comparisons across Int/Float.
    fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_date(&self) -> Option<i32> {
        match self {
            Value::Date(d) => Some(*d),
            _ => None,
        }
    }

    /// SQL three-valued-logic comparison. Returns `None` if either side is
    /// NULL or the types are incomparable.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => None,
            (Int(a), Int(b)) => Some(a.cmp(b)),
            (Float(a), Float(b)) => a.partial_cmp(b),
            (Int(_), Float(_)) | (Float(_), Int(_)) => self.as_f64()?.partial_cmp(&other.as_f64()?),
            (Str(a), Str(b)) => Some(a.as_ref().cmp(b.as_ref())),
            (Date(a), Date(b)) => Some(a.cmp(b)),
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// Total order used by ORDER BY and sort-based operators: NULLs sort
    /// last, incomparable types sort by type tag (deterministic).
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        match (self.is_null(), other.is_null()) {
            (true, true) => return Ordering::Equal,
            (true, false) => return Ordering::Greater,
            (false, true) => return Ordering::Less,
            _ => {}
        }
        if let Some(ord) = self.sql_cmp(other) {
            return ord;
        }
        self.type_tag().cmp(&other.type_tag())
    }

    fn type_tag(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 3,
            Value::Date(_) => 4,
            Value::Str(_) => 5,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Value) -> bool {
        use Value::*;
        match (self, other) {
            // Note: this is *grouping* equality (NULL == NULL), as used by
            // GROUP BY and hash join build keys after null filtering.
            (Null, Null) => true,
            (Int(a), Int(b)) => a == b,
            (Float(a), Float(b)) => a.to_bits() == b.to_bits(),
            (Int(_), Float(_)) | (Float(_), Int(_)) => match (self.as_f64(), other.as_f64()) {
                (Some(a), Some(b)) => a == b,
                _ => false,
            },
            (Str(a), Str(b)) => a == b,
            (Date(a), Date(b)) => a == b,
            (Bool(a), Bool(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Ints hash as the float they equal so Int/Float equality stays
            // consistent with hashing; a zero float hashes as +0.0, which
            // is what `Int(0)` hashes as (and equals).
            Value::Int(i) => {
                3u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(f) => {
                3u8.hash(state);
                let f = if *f == 0.0 { 0.0 } else { *f };
                f.to_bits().hash(state);
            }
            Value::Date(d) => {
                4u8.hash(state);
                d.hash(state);
            }
            Value::Str(s) => {
                5u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(v) => {
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v}")
                }
            }
            Value::Str(s) => f.write_str(s),
            Value::Date(d) => f.write_str(&date::format_days(*d)),
            Value::Bool(b) => f.write_str(if *b { "true" } else { "false" }),
        }
    }
}

/// Proleptic-Gregorian calendar date arithmetic on "days since 1970-01-01".
///
/// Implemented from scratch (no chrono) using the civil-from-days algorithm
/// of Howard Hinnant's date library, which is exact over the full i32 range.
pub mod date {
    /// Convert a calendar date to days since the Unix epoch.
    pub fn days_from_ymd(y: i32, m: u32, d: u32) -> i32 {
        debug_assert!((1..=12).contains(&m));
        debug_assert!((1..=31).contains(&d));
        let y = if m <= 2 { y - 1 } else { y };
        let era: i64 = if y >= 0 { y as i64 } else { y as i64 - 399 } / 400;
        let yoe = (y as i64 - era * 400) as u32; // [0, 399]
        let mp = (m + 9) % 12; // March = 0
        let doy = (153 * mp + 2) / 5 + d - 1; // [0, 365]
        let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
        (era * 146097 + doe as i64 - 719468) as i32
    }

    /// Convert days since the Unix epoch back to (year, month, day).
    pub fn ymd_from_days(days: i32) -> (i32, u32, u32) {
        let z = days as i64 + 719468;
        let era = if z >= 0 { z } else { z - 146096 } / 146097;
        let doe = (z - era * 146097) as u32; // [0, 146096]
        let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365; // [0, 399]
        let y = yoe as i64 + era * 400;
        let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
        let mp = (5 * doy + 2) / 153; // [0, 11]
        let d = doy - (153 * mp + 2) / 5 + 1; // [1, 31]
        let m = if mp < 10 { mp + 3 } else { mp - 9 }; // [1, 12]
        let y = if m <= 2 { y + 1 } else { y };
        (y as i32, m, d)
    }

    /// Parse a `YYYY-MM-DD` string.
    pub fn parse(s: &str) -> Option<i32> {
        let mut parts = s.splitn(3, '-');
        let y: i32 = parts.next()?.parse().ok()?;
        let m: u32 = parts.next()?.parse().ok()?;
        let d: u32 = parts.next()?.parse().ok()?;
        if !(1..=12).contains(&m) || !(1..=31).contains(&d) {
            return None;
        }
        Some(days_from_ymd(y, m, d))
    }

    /// Format days-since-epoch as `YYYY-MM-DD`.
    pub(crate) fn format_days(days: i32) -> String {
        let (y, m, d) = ymd_from_days(days);
        format!("{y:04}-{m:02}-{d:02}")
    }

    pub fn year_of(days: i32) -> i32 {
        ymd_from_days(days).0
    }

    pub fn month_of(days: i32) -> u32 {
        ymd_from_days(days).1
    }

    /// Add `n` calendar months, clamping the day-of-month (SQL interval
    /// semantics: Jan 31 + 1 month = Feb 28/29).
    pub fn add_months(days: i32, n: i32) -> i32 {
        let (y, m, d) = ymd_from_days(days);
        let total = y * 12 + (m as i32 - 1) + n;
        let (ny, nm) = (total.div_euclid(12), total.rem_euclid(12) as u32 + 1);
        let nd = d.min(days_in_month(ny, nm));
        days_from_ymd(ny, nm, nd)
    }

    pub(crate) fn days_in_month(y: i32, m: u32) -> u32 {
        match m {
            1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
            4 | 6 | 9 | 11 => 30,
            2 => {
                if is_leap(y) {
                    29
                } else {
                    28
                }
            }
            _ => unreachable!("invalid month"),
        }
    }

    pub(crate) fn is_leap(y: i32) -> bool {
        (y % 4 == 0 && y % 100 != 0) || y % 400 == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `Int(0)` equals both zero floats, so a key holding it finds them.
    #[test]
    fn int_zero_and_zero_floats_hash_alike() {
        let mut keys: crate::hash::FastMap<Vec<Value>, u8> = Default::default();
        keys.insert(vec![Value::Int(0)], 1);
        for zero in [-0.0, 0.0] {
            assert_eq!(keys.get(&vec![Value::Float(zero)]), Some(&1), "{zero:?}");
        }
        // Equality is unchanged: the two zero floats stay apart.
        assert_ne!(Value::Float(0.0), Value::Float(-0.0));
    }

    #[test]
    fn date_roundtrip_epoch() {
        assert_eq!(date::days_from_ymd(1970, 1, 1), 0);
        assert_eq!(date::ymd_from_days(0), (1970, 1, 1));
    }

    #[test]
    fn date_roundtrip_tpch_range() {
        // TPC-H dates span 1992-01-01 .. 1998-12-31.
        let start = date::days_from_ymd(1992, 1, 1);
        let end = date::days_from_ymd(1998, 12, 31);
        for d in start..=end {
            let (y, m, dd) = date::ymd_from_days(d);
            assert_eq!(date::days_from_ymd(y, m, dd), d);
        }
    }

    #[test]
    fn date_parse_format() {
        let d = date::parse("1995-03-15").unwrap();
        assert_eq!(date::format_days(d), "1995-03-15");
        assert_eq!(date::year_of(d), 1995);
        assert_eq!(date::month_of(d), 3);
        assert!(date::parse("1995-13-01").is_none());
        assert!(date::parse("nonsense").is_none());
    }

    #[test]
    fn date_add_months_clamps() {
        let jan31 = date::days_from_ymd(1995, 1, 31);
        assert_eq!(
            date::ymd_from_days(date::add_months(jan31, 1)),
            (1995, 2, 28)
        );
        let leap = date::days_from_ymd(1996, 1, 31);
        assert_eq!(
            date::ymd_from_days(date::add_months(leap, 1)),
            (1996, 2, 29)
        );
        // Across year boundary and backwards.
        let d = date::days_from_ymd(1994, 12, 15);
        assert_eq!(date::ymd_from_days(date::add_months(d, 1)), (1995, 1, 15));
        assert_eq!(
            date::ymd_from_days(date::add_months(d, -12)),
            (1993, 12, 15)
        );
    }

    #[test]
    fn leap_years() {
        assert!(date::is_leap(1996));
        assert!(!date::is_leap(1900));
        assert!(date::is_leap(2000));
    }

    #[test]
    fn value_cmp_mixed_numeric() {
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Float(2.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Int(1).sql_cmp(&Value::Float(1.5)),
            Some(Ordering::Less)
        );
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::str("a").sql_cmp(&Value::Int(1)), None);
    }

    #[test]
    fn value_eq_hash_consistent_for_mixed_numeric() {
        use std::collections::hash_map::DefaultHasher;
        fn h(v: &Value) -> u64 {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        }
        assert_eq!(Value::Int(7), Value::Float(7.0));
        assert_eq!(h(&Value::Int(7)), h(&Value::Float(7.0)));
    }

    #[test]
    fn total_cmp_nulls_last() {
        assert_eq!(Value::Null.total_cmp(&Value::Int(1)), Ordering::Greater);
        assert_eq!(Value::Int(1).total_cmp(&Value::Null), Ordering::Less);
        assert_eq!(Value::Null.total_cmp(&Value::Null), Ordering::Equal);
    }

    #[test]
    fn wire_sizes() {
        assert_eq!(Value::Int(5).wire_size(), 8);
        assert_eq!(Value::str("abc").wire_size(), 7);
        assert_eq!(Value::Null.wire_size(), 1);
        assert_eq!(Value::Date(0).wire_size(), 4);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::Float(1.5).to_string(), "1.5");
        assert_eq!(Value::Float(2.0).to_string(), "2.0");
        assert_eq!(
            Value::Date(date::parse("1998-12-01").unwrap()).to_string(),
            "1998-12-01"
        );
        assert_eq!(Value::Null.to_string(), "NULL");
    }

    #[test]
    fn datatype_parse() {
        assert_eq!(DataType::parse("bigint"), Some(DataType::Int));
        assert_eq!(DataType::parse("VARCHAR"), Some(DataType::Str));
        assert_eq!(DataType::parse("blob"), None);
    }
}
