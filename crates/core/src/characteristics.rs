//! The qualitative system-characteristics matrix of Table II: which
//! distributed-data-processing paradigms satisfy which cross-database
//! requirements.

/// The requirement rows of Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Characteristic {
    DbmsHeterogeneity,
    StorageAutonomy,
    ExecutionAutonomy,
    NoAdditionalQueryEngine,
    InterDbmsInteractions,
}

impl Characteristic {
    pub const ALL: [Characteristic; 5] = [
        Characteristic::DbmsHeterogeneity,
        Characteristic::StorageAutonomy,
        Characteristic::ExecutionAutonomy,
        Characteristic::NoAdditionalQueryEngine,
        Characteristic::InterDbmsInteractions,
    ];

    pub(crate) fn label(self) -> &'static str {
        match self {
            Characteristic::DbmsHeterogeneity => "DBMS Heterogeneity",
            Characteristic::StorageAutonomy => "Storage Autonomy",
            Characteristic::ExecutionAutonomy => "Execution Autonomy",
            Characteristic::NoAdditionalQueryEngine => "No additional QP engine",
            Characteristic::InterDbmsInteractions => "Inter-DBMS interactions",
        }
    }
}

/// The system-paradigm columns of Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Paradigm {
    /// Parallel & distributed DBMSes (R*, Spanner, CockroachDB, Citus...).
    Ddbms,
    /// P2P DBMSes (Piazza, PIER, AmbientDB).
    Pdbms,
    /// Federated / mediator-wrapper systems (Garlic, Presto, SparkSQL).
    Fdbms,
    /// In-situ cross-database processing — this system.
    Xdb,
}

impl Paradigm {
    pub const ALL: [Paradigm; 4] = [
        Paradigm::Ddbms,
        Paradigm::Pdbms,
        Paradigm::Fdbms,
        Paradigm::Xdb,
    ];

    pub(crate) fn label(self) -> &'static str {
        match self {
            Paradigm::Ddbms => "DDBMS",
            Paradigm::Pdbms => "PDBMS",
            Paradigm::Fdbms => "FDBMS",
            Paradigm::Xdb => "XDB",
        }
    }
}

/// Support levels in the matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Support {
    Yes,
    No,
    /// Qualified (the paper's footnoted entries: PDBMS replication /
    /// extra-software caveats).
    Partial(&'static str),
}

impl Support {
    pub(crate) fn symbol(self) -> &'static str {
        match self {
            Support::Yes => "yes",
            Support::No => "no",
            Support::Partial(_) => "partial",
        }
    }
}

/// Table II, cell by cell.
pub(crate) fn support(paradigm: Paradigm, characteristic: Characteristic) -> Support {
    use Characteristic as C;
    use Paradigm as P;
    match (paradigm, characteristic) {
        (P::Ddbms, C::DbmsHeterogeneity) => Support::No,
        (P::Ddbms, C::StorageAutonomy) => Support::No,
        (P::Ddbms, C::ExecutionAutonomy) => Support::No,
        (P::Ddbms, C::NoAdditionalQueryEngine) => Support::Yes,
        (P::Ddbms, C::InterDbmsInteractions) => Support::Yes,

        (P::Pdbms, C::DbmsHeterogeneity) => Support::Yes,
        (P::Pdbms, C::StorageAutonomy) => {
            Support::Partial("data is at times replicated (e.g. Piazza)")
        }
        (P::Pdbms, C::ExecutionAutonomy) => Support::Yes,
        (P::Pdbms, C::NoAdditionalQueryEngine) => Support::No,
        (P::Pdbms, C::InterDbmsInteractions) => {
            Support::Partial("requires additional software (DHTs, local query processors)")
        }

        (P::Fdbms, C::DbmsHeterogeneity) => Support::Yes,
        (P::Fdbms, C::StorageAutonomy) => Support::Yes,
        (P::Fdbms, C::ExecutionAutonomy) => Support::Yes,
        (P::Fdbms, C::NoAdditionalQueryEngine) => Support::No,
        (P::Fdbms, C::InterDbmsInteractions) => Support::No,

        (P::Xdb, _) => Support::Yes,
    }
}

/// Render Table II as aligned text.
pub fn render_table() -> String {
    let mut out = String::new();
    out.push_str(&format!("{:<26}", "Characteristics"));
    for p in Paradigm::ALL {
        out.push_str(&format!("{:>9}", p.label()));
    }
    out.push('\n');
    for c in Characteristic::ALL {
        out.push_str(&format!("{:<26}", c.label()));
        for p in Paradigm::ALL {
            out.push_str(&format!("{:>9}", support(p, c).symbol()));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xdb_satisfies_everything() {
        for c in Characteristic::ALL {
            assert_eq!(support(Paradigm::Xdb, c), Support::Yes);
        }
    }

    #[test]
    fn fdbms_needs_mediator() {
        assert_eq!(
            support(Paradigm::Fdbms, Characteristic::NoAdditionalQueryEngine),
            Support::No
        );
        assert_eq!(
            support(Paradigm::Fdbms, Characteristic::InterDbmsInteractions),
            Support::No
        );
    }

    #[test]
    fn ddbms_is_homogeneous() {
        assert_eq!(
            support(Paradigm::Ddbms, Characteristic::DbmsHeterogeneity),
            Support::No
        );
    }

    #[test]
    fn table_renders_all_cells() {
        let t = render_table();
        assert_eq!(t.lines().count(), 6);
        assert!(t.contains("XDB"));
        assert!(t.contains("partial"));
    }
}
