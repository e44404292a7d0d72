//! Deterministic TPC-H data generator (a from-scratch `dbgen`).
//!
//! Every column value is a pure function of `(seed, table, key, column)`
//! via splitmix64, so tables can be generated independently and in any
//! order while foreign keys and order-date/ship-date constraints still
//! hold exactly. Cardinalities follow the spec's scaling rules:
//!
//! | table    | rows            |
//! |----------|-----------------|
//! | region   | 5               |
//! | nation   | 25              |
//! | supplier | 10,000 × SF     |
//! | part     | 200,000 × SF    |
//! | partsupp | 4 per part      |
//! | customer | 150,000 × SF    |
//! | orders   | 10 per customer |
//! | lineitem | 1–7 per order   |

use crate::schema::TpchTable;
use xdb_engine::relation::Relation;
use xdb_sql::value::{date, Value};

/// splitmix64: the per-cell hash at the heart of the generator.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Days orders span: 1992-01-01 plus ~6.4 years (receipt dates stay within
/// 1998).
const ORDER_DATE_SPAN: u64 = 2340;

pub const REGIONS: [&str; 5] = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];

/// The 25 nations with their region keys, per the spec.
pub const NATIONS: [(&str, i64); 25] = [
    ("ALGERIA", 0),
    ("ARGENTINA", 1),
    ("BRAZIL", 1),
    ("CANADA", 1),
    ("EGYPT", 4),
    ("ETHIOPIA", 0),
    ("FRANCE", 3),
    ("GERMANY", 3),
    ("INDIA", 2),
    ("INDONESIA", 2),
    ("IRAN", 4),
    ("IRAQ", 4),
    ("JAPAN", 2),
    ("JORDAN", 4),
    ("KENYA", 0),
    ("MOROCCO", 0),
    ("MOZAMBIQUE", 0),
    ("PERU", 1),
    ("CHINA", 2),
    ("ROMANIA", 3),
    ("SAUDI ARABIA", 4),
    ("VIETNAM", 2),
    ("RUSSIA", 3),
    ("UNITED KINGDOM", 3),
    ("UNITED STATES", 1),
];

const SEGMENTS: [&str; 5] = [
    "AUTOMOBILE",
    "BUILDING",
    "FURNITURE",
    "MACHINERY",
    "HOUSEHOLD",
];
const PRIORITIES: [&str; 5] = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];
const SHIP_MODES: [&str; 7] = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"];
const SHIP_INSTRUCT: [&str; 4] = [
    "DELIVER IN PERSON",
    "COLLECT COD",
    "NONE",
    "TAKE BACK RETURN",
];
const CONTAINERS: [&str; 8] = [
    "SM CASE",
    "SM BOX",
    "MED BAG",
    "MED BOX",
    "LG CASE",
    "LG BOX",
    "JUMBO PACK",
    "WRAP JAR",
];
/// Part-name word pool; colors included so `p_name LIKE '%green%'` (Q9)
/// selects a stable ~1/10 fraction.
const PART_WORDS: [&str; 30] = [
    "green",
    "blue",
    "red",
    "ivory",
    "salmon",
    "almond",
    "antique",
    "aquamarine",
    "azure",
    "beige",
    "bisque",
    "black",
    "blanched",
    "blush",
    "brown",
    "burlywood",
    "burnished",
    "chartreuse",
    "chiffon",
    "chocolate",
    "coral",
    "cornflower",
    "cream",
    "cyan",
    "dark",
    "deep",
    "dim",
    "dodger",
    "drab",
    "firebrick",
];
const TYPE_SYLL1: [&str; 6] = ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"];
const TYPE_SYLL2: [&str; 5] = ["ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"];
const TYPE_SYLL3: [&str; 5] = ["TIN", "NICKEL", "BRASS", "STEEL", "COPPER"];
const COMMENT_WORDS: [&str; 16] = [
    "carefully",
    "quickly",
    "express",
    "pending",
    "final",
    "ironic",
    "regular",
    "special",
    "deposits",
    "packages",
    "accounts",
    "requests",
    "instructions",
    "theodolites",
    "pinto",
    "foxes",
];

/// The generator: scale factor + seed.
#[derive(Debug, Clone, Copy)]
pub struct TpchGen {
    pub scale: f64,
    pub seed: u64,
}

impl TpchGen {
    pub fn new(scale: f64) -> TpchGen {
        TpchGen {
            scale,
            seed: 19920101,
        }
    }

    fn h(&self, table: u64, key: u64, col: u64) -> u64 {
        mix(self.seed ^ mix(table).wrapping_add(mix(key).rotate_left(17)) ^ mix(col << 7))
    }

    fn pick<'a>(&self, table: u64, key: u64, col: u64, pool: &[&'a str]) -> &'a str {
        pool[(self.h(table, key, col) % pool.len() as u64) as usize]
    }

    fn uniform(&self, table: u64, key: u64, col: u64, lo: i64, hi: i64) -> i64 {
        lo + (self.h(table, key, col) % (hi - lo + 1) as u64) as i64
    }

    fn money(&self, table: u64, key: u64, col: u64, lo_cents: i64, hi_cents: i64) -> f64 {
        self.uniform(table, key, col, lo_cents, hi_cents) as f64 / 100.0
    }

    fn comment(&self, table: u64, key: u64, col: u64) -> String {
        let n = 2 + (self.h(table, key, col) % 3) as usize;
        let mut out = String::new();
        for i in 0..n {
            if i > 0 {
                out.push(' ');
            }
            out.push_str(self.pick(table, key, col + 100 + i as u64, &COMMENT_WORDS));
        }
        out
    }

    // ------------------------------------------------------------ counts

    pub(crate) fn suppliers(&self) -> u64 {
        ((10_000.0 * self.scale) as u64).max(1)
    }

    pub(crate) fn parts(&self) -> u64 {
        ((200_000.0 * self.scale) as u64).max(1)
    }

    pub(crate) fn customers(&self) -> u64 {
        ((150_000.0 * self.scale) as u64).max(1)
    }

    pub(crate) fn orders(&self) -> u64 {
        self.customers() * 10
    }

    fn lines_of(&self, orderkey: u64) -> u64 {
        1 + self.h(7, orderkey, 0) % 7
    }

    /// Functional order date: also consulted by the lineitem generator.
    fn order_date(&self, orderkey: u64) -> i32 {
        date::days_from_ymd(1992, 1, 1) + (self.h(6, orderkey, 4) % ORDER_DATE_SPAN) as i32
    }

    /// Number of rows a table will have at this scale.
    pub fn row_count(&self, table: TpchTable) -> u64 {
        match table {
            TpchTable::Region => 5,
            TpchTable::Nation => 25,
            TpchTable::Supplier => self.suppliers(),
            TpchTable::Part => self.parts(),
            TpchTable::PartSupp => self.parts() * 4,
            TpchTable::Customer => self.customers(),
            TpchTable::Orders => self.orders(),
            TpchTable::Lineitem => (1..=self.orders()).map(|o| self.lines_of(o)).sum(),
        }
    }

    // ---------------------------------------------------------- tables

    /// Generate a full table.
    pub fn table(&self, table: TpchTable) -> Relation {
        let fields = table.columns();
        let rows = match table {
            TpchTable::Region => self.gen_region(),
            TpchTable::Nation => self.gen_nation(),
            TpchTable::Supplier => self.gen_supplier(),
            TpchTable::Part => self.gen_part(),
            TpchTable::PartSupp => self.gen_partsupp(),
            TpchTable::Customer => self.gen_customer(),
            TpchTable::Orders => self.gen_orders(),
            TpchTable::Lineitem => self.gen_lineitem(),
        };
        Relation::new(fields, rows)
    }

    fn gen_region(&self) -> Vec<Vec<Value>> {
        REGIONS
            .iter()
            .enumerate()
            .map(|(i, name)| {
                vec![
                    Value::Int(i as i64),
                    Value::str(*name),
                    Value::str(self.comment(0, i as u64, 2)),
                ]
            })
            .collect()
    }

    fn gen_nation(&self) -> Vec<Vec<Value>> {
        NATIONS
            .iter()
            .enumerate()
            .map(|(i, (name, region))| {
                vec![
                    Value::Int(i as i64),
                    Value::str(*name),
                    Value::Int(*region),
                    Value::str(self.comment(1, i as u64, 3)),
                ]
            })
            .collect()
    }

    fn gen_supplier(&self) -> Vec<Vec<Value>> {
        (1..=self.suppliers())
            .map(|k| {
                vec![
                    Value::Int(k as i64),
                    Value::str(format!("Supplier#{k:09}")),
                    Value::str(format!("{} supply road", self.uniform(2, k, 2, 1, 999))),
                    Value::Int(self.uniform(2, k, 3, 0, 24)),
                    Value::str(phone(self.h(2, k, 4))),
                    Value::Float(self.money(2, k, 5, -99_999, 999_999)),
                    Value::str(self.comment(2, k, 6)),
                ]
            })
            .collect()
    }

    fn gen_part(&self) -> Vec<Vec<Value>> {
        (1..=self.parts())
            .map(|k| {
                let name = format!(
                    "{} {} {}",
                    self.pick(3, k, 1, &PART_WORDS),
                    self.pick(3, k, 11, &PART_WORDS),
                    self.pick(3, k, 21, &PART_WORDS)
                );
                let ptype = format!(
                    "{} {} {}",
                    self.pick(3, k, 41, &TYPE_SYLL1),
                    self.pick(3, k, 42, &TYPE_SYLL2),
                    self.pick(3, k, 43, &TYPE_SYLL3)
                );
                vec![
                    Value::Int(k as i64),
                    Value::str(name),
                    Value::str(format!("Manufacturer#{}", 1 + self.h(3, k, 2) % 5)),
                    Value::str(format!(
                        "Brand#{}{}",
                        1 + self.h(3, k, 3) % 5,
                        1 + self.h(3, k, 31) % 5
                    )),
                    Value::str(ptype),
                    Value::Int(self.uniform(3, k, 5, 1, 50)),
                    Value::str(self.pick(3, k, 6, &CONTAINERS)),
                    // Spec formula keeps prices key-dependent but bounded.
                    Value::Float(
                        (90_000 + (k as i64 % 200) * 100 + k as i64 % 1000) as f64 / 100.0,
                    ),
                    Value::str(self.comment(3, k, 8)),
                ]
            })
            .collect()
    }

    fn gen_partsupp(&self) -> Vec<Vec<Value>> {
        let suppliers = self.suppliers();
        let mut rows = Vec::with_capacity((self.parts() * 4) as usize);
        for p in 1..=self.parts() {
            for i in 0..4u64 {
                // Spec-style supplier spreading so every part has four
                // distinct suppliers.
                let s = (p + i * (suppliers / 4 + (p - 1) / suppliers % (suppliers / 4).max(1)))
                    % suppliers
                    + 1;
                rows.push(vec![
                    Value::Int(p as i64),
                    Value::Int(s as i64),
                    Value::Int(self.uniform(4, p * 4 + i, 2, 1, 9999)),
                    Value::Float(self.money(4, p * 4 + i, 3, 100, 100_000)),
                    Value::str(self.comment(4, p * 4 + i, 4)),
                ]);
            }
        }
        rows
    }

    fn gen_customer(&self) -> Vec<Vec<Value>> {
        (1..=self.customers())
            .map(|k| {
                vec![
                    Value::Int(k as i64),
                    Value::str(format!("Customer#{k:09}")),
                    Value::str(format!("{} market lane", self.uniform(5, k, 2, 1, 999))),
                    Value::Int(self.uniform(5, k, 3, 0, 24)),
                    Value::str(phone(self.h(5, k, 4))),
                    Value::Float(self.money(5, k, 5, -99_999, 999_999)),
                    Value::str(self.pick(5, k, 6, &SEGMENTS)),
                    Value::str(self.comment(5, k, 7)),
                ]
            })
            .collect()
    }

    fn gen_orders(&self) -> Vec<Vec<Value>> {
        let customers = self.customers();
        (1..=self.orders())
            .map(|k| {
                let odate = self.order_date(k);
                vec![
                    Value::Int(k as i64),
                    Value::Int((self.h(6, k, 1) % customers + 1) as i64),
                    Value::str(self.pick(6, k, 2, &["O", "F", "P"])),
                    Value::Float(self.money(6, k, 3, 100_000, 50_000_000)),
                    Value::Date(odate),
                    Value::str(self.pick(6, k, 5, &PRIORITIES)),
                    Value::str(format!("Clerk#{:09}", self.h(6, k, 6) % 1000 + 1)),
                    Value::Int(0),
                    Value::str(self.comment(6, k, 8)),
                ]
            })
            .collect()
    }

    fn gen_lineitem(&self) -> Vec<Vec<Value>> {
        let parts = self.parts();
        let suppliers = self.suppliers();
        let mut rows = Vec::new();
        for o in 1..=self.orders() {
            let odate = self.order_date(o);
            for line in 1..=self.lines_of(o) {
                let key = o * 8 + line;
                let quantity = self.uniform(7, key, 1, 1, 50) as f64;
                let price_per_unit = self.money(7, key, 2, 90_000, 105_000);
                let ship = odate + self.uniform(7, key, 3, 1, 121) as i32;
                let commit = odate + self.uniform(7, key, 4, 30, 90) as i32;
                let receipt = ship + self.uniform(7, key, 5, 1, 30) as i32;
                rows.push(vec![
                    Value::Int(o as i64),
                    Value::Int((self.h(7, key, 6) % parts + 1) as i64),
                    Value::Int((self.h(7, key, 7) % suppliers + 1) as i64),
                    Value::Int(line as i64),
                    Value::Float(quantity),
                    Value::Float((quantity * price_per_unit * 100.0).round() / 100.0),
                    Value::Float(self.uniform(7, key, 8, 0, 10) as f64 / 100.0),
                    Value::Float(self.uniform(7, key, 9, 0, 8) as f64 / 100.0),
                    Value::str(self.pick(7, key, 10, &["R", "A", "N"])),
                    Value::str(self.pick(7, key, 11, &["O", "F"])),
                    Value::Date(ship),
                    Value::Date(commit),
                    Value::Date(receipt),
                    Value::str(self.pick(7, key, 12, &SHIP_INSTRUCT)),
                    Value::str(self.pick(7, key, 13, &SHIP_MODES)),
                    Value::str(self.comment(7, key, 14)),
                ]);
            }
        }
        rows
    }
}

fn phone(h: u64) -> String {
    format!(
        "{}-{:03}-{:03}-{:04}",
        10 + h % 25,
        mix(h) % 1000,
        mix(h ^ 1) % 1000,
        mix(h ^ 2) % 10_000
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen() -> TpchGen {
        TpchGen::new(0.01)
    }

    #[test]
    fn cardinalities_scale() {
        let g = gen();
        assert_eq!(g.row_count(TpchTable::Region), 5);
        assert_eq!(g.row_count(TpchTable::Nation), 25);
        assert_eq!(g.row_count(TpchTable::Customer), 1500);
        assert_eq!(g.row_count(TpchTable::Orders), 15_000);
        assert_eq!(g.row_count(TpchTable::Supplier), 100);
        assert_eq!(g.row_count(TpchTable::Part), 2000);
        assert_eq!(g.row_count(TpchTable::PartSupp), 8000);
        let l = g.row_count(TpchTable::Lineitem);
        // ~4 lines per order on average.
        assert!((45_000..75_000).contains(&l), "{l}");
    }

    #[test]
    fn generation_is_deterministic() {
        let a = gen().table(TpchTable::Orders);
        let b = gen().table(TpchTable::Orders);
        assert_eq!(a.row(0), b.row(0));
        assert_eq!(a.row(a.len() - 1), b.row(b.len() - 1));
        // Different seed → different data.
        let c = TpchGen {
            seed: 7,
            ..TpchGen::new(0.01)
        }
        .table(TpchTable::Orders);
        assert_ne!(a.row(0), c.row(0));
    }

    #[test]
    fn row_counts_match_generated() {
        let g = gen();
        for t in TpchTable::ALL {
            assert_eq!(
                g.table(t).len() as u64,
                g.row_count(t),
                "count mismatch for {t:?}"
            );
        }
    }

    #[test]
    fn foreign_keys_are_in_range() {
        let g = gen();
        let customers = g.customers() as i64;
        for row in g.table(TpchTable::Orders).rows() {
            let ck = row[1].as_int().unwrap();
            assert!((1..=customers).contains(&ck));
        }
        let parts = g.parts() as i64;
        let supps = g.suppliers() as i64;
        for row in g.table(TpchTable::Lineitem).rows().take(5000) {
            assert!((1..=parts).contains(&row[1].as_int().unwrap()));
            assert!((1..=supps).contains(&row[2].as_int().unwrap()));
        }
        for row in g.table(TpchTable::Nation).rows() {
            assert!((0..5).contains(&row[2].as_int().unwrap()));
        }
    }

    #[test]
    fn lineitem_dates_follow_order_dates() {
        let g = gen();
        let orders = g.table(TpchTable::Orders);
        let odate: std::collections::HashMap<i64, i32> = orders
            .rows()
            .map(|r| (r[0].as_int().unwrap(), r[4].as_date().unwrap()))
            .collect();
        for row in g.table(TpchTable::Lineitem).rows().take(5000) {
            let o = row[0].as_int().unwrap();
            let ship = row[10].as_date().unwrap();
            let receipt = row[12].as_date().unwrap();
            assert!(ship > odate[&o], "ship date before order date");
            assert!(receipt > ship);
        }
    }

    #[test]
    fn q9_green_fraction_reasonable() {
        let g = gen();
        let parts = g.table(TpchTable::Part);
        let green = parts
            .rows()
            .filter(|r| r[1].as_str().unwrap().contains("green"))
            .count();
        let frac = green as f64 / parts.len() as f64;
        assert!((0.02..0.25).contains(&frac), "{frac}");
    }

    #[test]
    fn q8_economy_anodized_steel_exists() {
        let g = gen();
        let parts = g.table(TpchTable::Part);
        assert!(parts
            .rows()
            .any(|r| r[4].as_str().unwrap() == "ECONOMY ANODIZED STEEL"));
    }

    #[test]
    fn mktsegment_building_exists() {
        let g = gen();
        let customers = g.table(TpchTable::Customer);
        let building = customers
            .rows()
            .filter(|r| r[6].as_str().unwrap() == "BUILDING")
            .count();
        assert!(building > 100);
    }

    #[test]
    fn partsupp_has_four_distinct_suppliers_per_part() {
        let g = gen();
        let ps = g.table(TpchTable::PartSupp);
        let mut by_part: std::collections::HashMap<i64, std::collections::HashSet<i64>> =
            std::collections::HashMap::new();
        for row in ps.rows() {
            by_part
                .entry(row[0].as_int().unwrap())
                .or_default()
                .insert(row[1].as_int().unwrap());
        }
        let distinct4 = by_part.values().filter(|s| s.len() == 4).count();
        // The overwhelming majority of parts must have 4 distinct
        // suppliers (tiny scale factors may collide occasionally).
        assert!(distinct4 as f64 > 0.9 * by_part.len() as f64);
    }
}
