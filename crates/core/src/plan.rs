//! Delegation plans (Section IV-A): the intermediate representation that
//! "captures the semantics as well as the mechanics of a fully
//! decentralized query execution".
//!
//! A delegation plan is a DAG `G = (T, E)`: tasks are algebraic expressions
//! annotated with the DBMS that must evaluate them (`a:r` in the paper's
//! notation); edges are dataflow operations, either implicit (pipelined,
//! `i`) or explicit (materialized, `e`).

use xdb_net::{Movement, NodeId};
use xdb_sql::algebra::LogicalPlan;
use xdb_sql::value::DataType;

/// Name of the placeholder relation standing in for task `id`'s output
/// inside a consuming task (the `?` of the paper, Section IV-B3).
pub fn placeholder_name(id: usize) -> String {
    format!("__task_{id}")
}

/// Alias under which a placeholder is addressed inside the consuming
/// task's expressions.
pub(crate) fn placeholder_alias(id: usize) -> String {
    format!("t{id}")
}

/// One task `t = (r, a)`: an algebraic expression `r` assigned to DBMS `a`.
#[derive(Debug, Clone)]
pub struct Task {
    pub id: usize,
    pub dbms: NodeId,
    /// The task body; leaves are base-table scans and [`LogicalPlan::Placeholder`]s
    /// referring to other tasks.
    pub plan: LogicalPlan,
    /// Output columns of the task's (virtual) relation.
    pub output_fields: Vec<(String, DataType)>,
    /// Optimizer's cardinality estimate for the task output.
    pub est_rows: f64,
}

/// One dataflow edge `t_from --x--> t_to`.
#[derive(Debug, Clone, PartialEq)]
pub struct Edge {
    pub from: usize,
    pub to: usize,
    pub movement: Movement,
}

/// The full delegation plan.
#[derive(Debug, Clone, Default)]
pub struct DelegationPlan {
    pub tasks: Vec<Task>,
    pub edges: Vec<Edge>,
    /// Index of the root task (whose output is the query result).
    pub root: usize,
}

impl DelegationPlan {
    /// In-edges of a task.
    pub fn in_edges(&self, task: usize) -> impl Iterator<Item = &Edge> {
        self.edges.iter().filter(move |e| e.to == task)
    }

    /// Tasks in dependency order (children before consumers). Task ids are
    /// assigned bottom-up during annotation, so id order is topological.
    pub fn topo_order(&self) -> Vec<usize> {
        let mut ids: Vec<usize> = self.tasks.iter().map(|t| t.id).collect();
        ids.sort_unstable();
        ids
    }

    pub fn task(&self, id: usize) -> &Task {
        self.tasks.iter().find(|t| t.id == id).expect("task id")
    }

    /// Paper-style notation for the whole plan, one edge per line, e.g.
    /// `db2:⋈(c,o) --i--> db1:⋈(?,l)` (Table IV).
    pub fn notation(&self) -> String {
        let mut out = String::new();
        for e in &self.edges {
            let from = self.task(e.from);
            let to = self.task(e.to);
            out.push_str(&format!(
                "{}:{} --{}--> {}:{}\n",
                from.dbms,
                from.plan.compact_notation(),
                e.movement,
                to.dbms,
                to.plan.compact_notation()
            ));
        }
        if self.edges.is_empty() {
            if let Some(root) = self.tasks.iter().find(|t| t.id == self.root) {
                out.push_str(&format!("{}:{}\n", root.dbms, root.plan.compact_notation()));
            }
        }
        out
    }

    /// Full human-readable dump (plan explorer example).
    pub fn describe(&self) -> String {
        let mut out = String::new();
        for id in self.topo_order() {
            let t = self.task(id);
            out.push_str(&format!(
                "task t{} @ {} (est {} rows){}\n",
                t.id,
                t.dbms,
                t.est_rows.round() as u64,
                if t.id == self.root { "  [root]" } else { "" }
            ));
            for line in t.plan.tree_string().lines() {
                out.push_str("    ");
                out.push_str(line);
                out.push('\n');
            }
            for e in self.in_edges(id) {
                out.push_str(&format!(
                    "    <-- t{} ({})\n",
                    e.from,
                    match e.movement {
                        Movement::Implicit => "implicit / pipelined",
                        Movement::Explicit => "explicit / materialized",
                    }
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(alias: &str) -> LogicalPlan {
        LogicalPlan::scan(alias, alias, [("x".into(), DataType::Int)])
    }

    fn sample() -> DelegationPlan {
        DelegationPlan {
            tasks: vec![
                Task {
                    id: 0,
                    dbms: NodeId::new("vdb"),
                    plan: scan("v"),
                    output_fields: vec![("x".to_string(), DataType::Int)],
                    est_rows: 10.0,
                },
                Task {
                    id: 1,
                    dbms: NodeId::new("cdb"),
                    plan: LogicalPlan::placeholder(
                        placeholder_name(0),
                        placeholder_alias(0),
                        [("x".into(), DataType::Int)],
                    ),
                    output_fields: vec![("x".to_string(), DataType::Int)],
                    est_rows: 10.0,
                },
            ],
            edges: vec![Edge {
                from: 0,
                to: 1,
                movement: Movement::Implicit,
            }],
            root: 1,
        }
    }

    #[test]
    fn notation_shows_edges() {
        let p = sample();
        let n = p.notation();
        assert!(n.contains("vdb:v --i--> cdb:?"), "{n}");
    }

    #[test]
    fn topo_and_counts() {
        let p = sample();
        assert_eq!(p.topo_order(), vec![0, 1]);
        assert_eq!(p.in_edges(1).count(), 1);
        assert_eq!(p.in_edges(0).count(), 0);
    }

    #[test]
    fn describe_mentions_root() {
        let p = sample();
        assert!(p.describe().contains("[root]"));
    }
}
