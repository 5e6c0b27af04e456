//! Cross-user dependency graph with cycle detection.
//!
//! A multicast filter "about" user B gates every member's stream on B's
//! context; if one of B's streams is in turn gated on a member of the first
//! multicast, delivery deadlocks: each side waits for context the other
//! side only uplinks once *its* filter passes. The server therefore keeps
//! the graph `owner → subject` over all multicasts and user-scoped
//! subscriptions and rejects any plan that would close a cycle.

use std::collections::{BTreeMap, BTreeSet};

use sensocial_types::{DiagnosticCode, PlanDiagnostic, UserId};

/// A directed graph of cross-user context dependencies.
#[derive(Debug, Clone, Default)]
pub struct DependencyGraph {
    edges: BTreeMap<UserId, BTreeSet<UserId>>,
}

impl DependencyGraph {
    /// Creates an empty graph.
    #[must_use]
    pub fn new() -> Self {
        DependencyGraph::default()
    }

    /// Records that `owner`'s stream delivery depends on `subject`'s
    /// context. Self-dependencies are ignored: a condition about a user's
    /// own context is just a local condition with an explicit subject.
    pub fn depend(&mut self, owner: &UserId, subject: &UserId) {
        if owner == subject {
            return;
        }
        self.edges
            .entry(owner.clone())
            .or_default()
            .insert(subject.clone());
    }

    /// Whether the graph has no edges.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Every user appearing as an owner or subject, sorted.
    pub fn nodes(&self) -> Vec<UserId> {
        let mut nodes: BTreeSet<&UserId> = BTreeSet::new();
        for (owner, subjects) in &self.edges {
            nodes.insert(owner);
            nodes.extend(subjects.iter());
        }
        nodes.into_iter().cloned().collect()
    }

    /// Every `owner → subject` edge, sorted by `(owner, subject)`.
    pub fn edge_list(&self) -> Vec<(UserId, UserId)> {
        self.edges
            .iter()
            .flat_map(|(owner, subjects)| subjects.iter().map(move |s| (owner.clone(), s.clone())))
            .collect()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.values().map(BTreeSet::len).sum()
    }

    /// Finds a dependency cycle, returned as the users along it (first
    /// user repeated at the end), or `None` if the graph is acyclic.
    pub fn find_cycle(&self) -> Option<Vec<UserId>> {
        let mut color: BTreeMap<&UserId, u8> = BTreeMap::new();
        let mut path: Vec<&UserId> = Vec::new();
        for start in self.edges.keys() {
            if let Some(cycle) = self.dfs(start, &mut color, &mut path) {
                return Some(cycle);
            }
        }
        None
    }

    /// Colored DFS: 1 = on the current path, 2 = fully explored. Hitting a
    /// grey node closes a cycle; `path` reconstructs it.
    fn dfs<'a>(
        &'a self,
        node: &'a UserId,
        color: &mut BTreeMap<&'a UserId, u8>,
        path: &mut Vec<&'a UserId>,
    ) -> Option<Vec<UserId>> {
        match color.get(node).copied().unwrap_or(0) {
            1 => {
                let from = path.iter().position(|u| *u == node).unwrap_or(0);
                let mut cycle: Vec<UserId> = path[from..].iter().map(|u| (*u).clone()).collect();
                cycle.push(node.clone());
                return Some(cycle);
            }
            2 => return None,
            _ => {}
        }
        color.insert(node, 1);
        path.push(node);
        if let Some(subjects) = self.edges.get(node) {
            for next in subjects {
                if let Some(cycle) = self.dfs(next, color, path) {
                    return Some(cycle);
                }
            }
        }
        path.pop();
        color.insert(node, 2);
        None
    }

    /// The cycle as a [`PlanDiagnostic`], if one exists.
    pub fn cycle_diagnostic(&self) -> Option<PlanDiagnostic> {
        self.find_cycle().map(|cycle| {
            let path: Vec<String> = cycle.iter().map(ToString::to_string).collect();
            PlanDiagnostic::error(
                DiagnosticCode::DependencyCycle,
                format!(
                    "multicast/subscription filters form a cross-user dependency cycle: {}",
                    path.join(" -> ")
                ),
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(name: &str) -> UserId {
        UserId::new(name)
    }

    #[test]
    fn acyclic_graph_has_no_cycle() {
        let mut g = DependencyGraph::new();
        g.depend(&u("a"), &u("b"));
        g.depend(&u("b"), &u("c"));
        g.depend(&u("a"), &u("c"));
        assert!(g.find_cycle().is_none());
        assert!(g.cycle_diagnostic().is_none());
    }

    #[test]
    fn two_node_cycle_is_found() {
        let mut g = DependencyGraph::new();
        g.depend(&u("a"), &u("b"));
        g.depend(&u("b"), &u("a"));
        let cycle = g.find_cycle().expect("cycle exists");
        assert_eq!(cycle.first(), cycle.last());
        assert!(cycle.len() == 3, "a -> b -> a");
        let diag = g.cycle_diagnostic().expect("diagnostic");
        assert_eq!(diag.code, DiagnosticCode::DependencyCycle);
        assert!(diag.message.contains(" -> "));
    }

    #[test]
    fn longer_cycle_is_found() {
        let mut g = DependencyGraph::new();
        g.depend(&u("a"), &u("b"));
        g.depend(&u("b"), &u("c"));
        g.depend(&u("c"), &u("a"));
        g.depend(&u("c"), &u("d"));
        let cycle = g.find_cycle().expect("cycle exists");
        assert_eq!(cycle.len(), 4);
    }

    #[test]
    fn accessors_expose_sorted_views() {
        let mut g = DependencyGraph::new();
        g.depend(&u("b"), &u("a"));
        g.depend(&u("a"), &u("c"));
        g.depend(&u("a"), &u("b"));
        assert_eq!(g.nodes(), vec![u("a"), u("b"), u("c")]);
        assert_eq!(
            g.edge_list(),
            vec![(u("a"), u("b")), (u("a"), u("c")), (u("b"), u("a"))]
        );
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn self_dependency_is_not_a_cycle() {
        let mut g = DependencyGraph::new();
        g.depend(&u("a"), &u("a"));
        assert!(g.is_empty());
        assert!(g.find_cycle().is_none());
    }
}
