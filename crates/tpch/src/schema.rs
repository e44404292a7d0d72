//! TPC-H schema (the eight tables of the benchmark, full column sets).

use xdb_sql::value::DataType;

/// The eight TPC-H tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TpchTable {
    Region,
    Nation,
    Supplier,
    Part,
    PartSupp,
    Customer,
    Orders,
    Lineitem,
}

impl TpchTable {
    pub const ALL: [TpchTable; 8] = [
        TpchTable::Region,
        TpchTable::Nation,
        TpchTable::Supplier,
        TpchTable::Part,
        TpchTable::PartSupp,
        TpchTable::Customer,
        TpchTable::Orders,
        TpchTable::Lineitem,
    ];

    pub fn name(self) -> &'static str {
        match self {
            TpchTable::Region => "region",
            TpchTable::Nation => "nation",
            TpchTable::Supplier => "supplier",
            TpchTable::Part => "part",
            TpchTable::PartSupp => "partsupp",
            TpchTable::Customer => "customer",
            TpchTable::Orders => "orders",
            TpchTable::Lineitem => "lineitem",
        }
    }

    /// The paper's single-letter table abbreviations (Table III).
    pub(crate) fn abbrev(self) -> &'static str {
        match self {
            TpchTable::Region => "r",
            TpchTable::Nation => "n",
            TpchTable::Supplier => "s",
            TpchTable::Part => "p",
            TpchTable::PartSupp => "ps",
            TpchTable::Customer => "c",
            TpchTable::Orders => "o",
            TpchTable::Lineitem => "l",
        }
    }

    pub fn from_abbrev(s: &str) -> Option<TpchTable> {
        TpchTable::ALL.iter().copied().find(|t| t.abbrev() == s)
    }

    /// Column names and types.
    pub(crate) fn columns(self) -> Vec<(String, DataType)> {
        use DataType::*;
        let cols: &[(&str, DataType)] = match self {
            TpchTable::Region => &[("r_regionkey", Int), ("r_name", Str), ("r_comment", Str)],
            TpchTable::Nation => &[
                ("n_nationkey", Int),
                ("n_name", Str),
                ("n_regionkey", Int),
                ("n_comment", Str),
            ],
            TpchTable::Supplier => &[
                ("s_suppkey", Int),
                ("s_name", Str),
                ("s_address", Str),
                ("s_nationkey", Int),
                ("s_phone", Str),
                ("s_acctbal", Float),
                ("s_comment", Str),
            ],
            TpchTable::Part => &[
                ("p_partkey", Int),
                ("p_name", Str),
                ("p_mfgr", Str),
                ("p_brand", Str),
                ("p_type", Str),
                ("p_size", Int),
                ("p_container", Str),
                ("p_retailprice", Float),
                ("p_comment", Str),
            ],
            TpchTable::PartSupp => &[
                ("ps_partkey", Int),
                ("ps_suppkey", Int),
                ("ps_availqty", Int),
                ("ps_supplycost", Float),
                ("ps_comment", Str),
            ],
            TpchTable::Customer => &[
                ("c_custkey", Int),
                ("c_name", Str),
                ("c_address", Str),
                ("c_nationkey", Int),
                ("c_phone", Str),
                ("c_acctbal", Float),
                ("c_mktsegment", Str),
                ("c_comment", Str),
            ],
            TpchTable::Orders => &[
                ("o_orderkey", Int),
                ("o_custkey", Int),
                ("o_orderstatus", Str),
                ("o_totalprice", Float),
                ("o_orderdate", Date),
                ("o_orderpriority", Str),
                ("o_clerk", Str),
                ("o_shippriority", Int),
                ("o_comment", Str),
            ],
            TpchTable::Lineitem => &[
                ("l_orderkey", Int),
                ("l_partkey", Int),
                ("l_suppkey", Int),
                ("l_linenumber", Int),
                ("l_quantity", Float),
                ("l_extendedprice", Float),
                ("l_discount", Float),
                ("l_tax", Float),
                ("l_returnflag", Str),
                ("l_linestatus", Str),
                ("l_shipdate", Date),
                ("l_commitdate", Date),
                ("l_receiptdate", Date),
                ("l_shipinstruct", Str),
                ("l_shipmode", Str),
                ("l_comment", Str),
            ],
        };
        cols.iter().map(|(n, t)| (n.to_string(), *t)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abbrev_roundtrip() {
        for t in TpchTable::ALL {
            assert_eq!(TpchTable::from_abbrev(t.abbrev()), Some(t));
        }
        assert_eq!(TpchTable::from_abbrev("zz"), None);
    }

    #[test]
    fn lineitem_has_sixteen_columns() {
        assert_eq!(TpchTable::Lineitem.columns().len(), 16);
        assert_eq!(TpchTable::Region.columns().len(), 3);
    }
}
