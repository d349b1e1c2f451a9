//! A recursive live-state monitor tree, in the style of ouisync's
//! `state_monitor`.
//!
//! Where metrics accumulate *history*, the monitor tree mirrors *current*
//! state: each subsystem attaches a child node for as long as the thing it
//! describes exists — a session, an in-flight expansion, a connection —
//! and the node detaches automatically when its last handle drops.  A
//! snapshot ([`StateMonitor::to_tree`]) or a rendered dump
//! ([`StateMonitor::render_tree`]) therefore shows exactly what the engine
//! is doing at that instant.
//!
//! Handles are cheap (`Arc` clones); values are plain strings set with
//! [`StateMonitor::insert`], or given with the node when it is made
//! ([`StateMonitor::make_child_with`]).  Children with the same name are
//! disambiguated by a process-global sequence number so two connections
//! named `"connection"` coexist.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Display;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};

/// Orders sibling nodes created with the same name.
static NEXT_DISAMBIGUATOR: AtomicU64 = AtomicU64::new(1);

#[derive(Debug, Default)]
struct NodeState {
    /// Sorted by key.
    values: Vec<(Cow<'static, str>, Cow<'static, str>)>,
    /// Keyed by the children's disambiguators, which are unique;
    /// [`StateMonitor::to_tree`] orders them by name, then disambiguator.
    children: BTreeMap<u64, Weak<Node>>,
}

impl NodeState {
    fn set(&mut self, key: Cow<'static, str>, value: Cow<'static, str>) {
        match self.position(&key) {
            Ok(at) => self.values[at].1 = value,
            Err(at) => self.values.insert(at, (key, value)),
        }
    }

    fn position(&self, key: &str) -> Result<usize, usize> {
        self.values.binary_search_by(|(k, _)| k.as_ref().cmp(key))
    }
}

#[derive(Debug)]
struct Node {
    name: Cow<'static, str>,
    disambiguator: u64,
    parent: Option<Arc<Node>>,
    state: Mutex<NodeState>,
}

impl Drop for Node {
    fn drop(&mut self) {
        // Detach from the parent; the parent's map holds only a Weak, so
        // this is bookkeeping, not a liveness requirement — `to_tree`
        // skips dead children anyway.
        if let Some(parent) = &self.parent {
            parent
                .state
                .lock()
                .unwrap()
                .children
                .remove(&self.disambiguator);
        }
    }
}

/// A handle to one node of the monitor tree.
///
/// Cloning shares the node.  Dropping the last handle to a node detaches
/// it (and its whole subtree) from the parent.  Names, keys and values
/// are `Cow<'static, str>`: a literal is kept by reference, with no
/// allocation.
#[derive(Debug, Clone)]
pub struct StateMonitor {
    node: Arc<Node>,
}

impl StateMonitor {
    /// Creates a detached root node.
    pub fn make_root(name: impl Into<Cow<'static, str>>) -> Self {
        StateMonitor {
            node: Arc::new(Node {
                name: name.into(),
                disambiguator: 0,
                parent: None,
                state: Mutex::new(NodeState::default()),
            }),
        }
    }

    /// Creates (and attaches) a child node.  The child lives until the
    /// returned handle — and every clone of it — is dropped.
    pub fn make_child(&self, name: impl Into<Cow<'static, str>>) -> StateMonitor {
        self.make_child_with(name, [])
    }

    /// Creates (and attaches) a child node that already holds `values`,
    /// as [`make_child`](Self::make_child) followed by one
    /// [`insert`](Self::insert) per value would, but taking this node's
    /// lock once and the child's not at all.
    pub fn make_child_with<const N: usize>(
        &self,
        name: impl Into<Cow<'static, str>>,
        values: [(&'static str, Cow<'static, str>); N],
    ) -> StateMonitor {
        let mut state = NodeState {
            values: Vec::with_capacity(N),
            children: BTreeMap::new(),
        };
        for (key, value) in values {
            state.set(Cow::Borrowed(key), value);
        }
        let disambiguator = NEXT_DISAMBIGUATOR.fetch_add(1, Ordering::Relaxed);
        let child = Arc::new(Node {
            name: name.into(),
            disambiguator,
            parent: Some(Arc::clone(&self.node)),
            state: Mutex::new(state),
        });
        self.node
            .state
            .lock()
            .unwrap()
            .children
            .insert(disambiguator, Arc::downgrade(&child));
        StateMonitor { node: child }
    }

    /// Sets (or replaces) one value on this node.
    pub fn insert(&self, key: impl Into<Cow<'static, str>>, value: impl Display) {
        self.node
            .state
            .lock()
            .unwrap()
            .set(key.into(), Cow::Owned(value.to_string()));
    }

    /// Removes one value.
    pub fn remove(&self, key: &str) {
        let mut state = self.node.state.lock().unwrap();
        if let Ok(at) = state.position(key) {
            state.values.remove(at);
        }
    }

    /// This node's name.
    pub fn name(&self) -> String {
        self.node.name.to_string()
    }

    /// Number of currently live children.
    pub fn child_count(&self) -> usize {
        self.node
            .state
            .lock()
            .unwrap()
            .children
            .values()
            .filter(|w| w.strong_count() > 0)
            .count()
    }

    /// Snapshots the subtree rooted here into an owned, serializable tree.
    pub fn to_tree(&self) -> MonitorTree {
        Self::tree_of(&self.node)
    }

    fn tree_of(node: &Arc<Node>) -> MonitorTree {
        // Collect child Arcs under the lock, recurse outside it, so a
        // deep tree never holds two locks at once.
        let (values, mut children) = {
            let state = node.state.lock().unwrap();
            let children: Vec<Arc<Node>> =
                state.children.values().filter_map(Weak::upgrade).collect();
            (
                state
                    .values
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.to_string()))
                    .collect(),
                children,
            )
        };
        children.sort_by(|a, b| (&a.name, a.disambiguator).cmp(&(&b.name, b.disambiguator)));
        MonitorTree {
            name: node.name.to_string(),
            values,
            children: children.iter().map(Self::tree_of).collect(),
        }
    }

    /// Renders the subtree as an indented debug dump.
    pub fn render_tree(&self) -> String {
        self.to_tree().render()
    }
}

/// An owned snapshot of a monitor subtree — what goes over the wire for a
/// remote monitor request.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MonitorTree {
    /// The node's name.
    pub name: String,
    /// The node's values, sorted by key.
    pub values: Vec<(String, String)>,
    /// Live children at snapshot time, in (name, creation) order.
    pub children: Vec<MonitorTree>,
}

impl MonitorTree {
    /// Renders the tree as an indented debug dump:
    ///
    /// ```text
    /// crowddb
    ///   queries_active: 1
    ///   expansions
    ///     movies/is_comedy
    ///       cost_so_far: $2.50
    /// ```
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        let indent = "  ".repeat(depth);
        out.push_str(&format!("{indent}{}\n", self.name));
        for (key, value) in &self.values {
            out.push_str(&format!("{indent}  {key}: {value}\n"));
        }
        for child in &self.children {
            child.render_into(out, depth + 1);
        }
    }

    /// Finds the first descendant (depth-first, including self) with this
    /// name.
    pub fn find(&self, name: &str) -> Option<&MonitorTree> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }

    /// The value of `key` on this node.
    pub fn value(&self, key: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_attach_and_detach_with_handle_lifetime() {
        let root = StateMonitor::make_root("root");
        assert_eq!(root.child_count(), 0);
        let a = root.make_child("session");
        let b = root.make_child("session"); // same name, disambiguated
        a.insert("sql", "SELECT 1");
        b.insert("sql", "SELECT 2");
        assert_eq!(root.child_count(), 2);
        let tree = root.to_tree();
        assert_eq!(tree.children.len(), 2);
        assert_eq!(tree.children[0].value("sql"), Some("SELECT 1"));
        drop(a);
        assert_eq!(root.child_count(), 1);
        let tree = root.to_tree();
        assert_eq!(tree.children.len(), 1);
        assert_eq!(tree.children[0].value("sql"), Some("SELECT 2"));
    }

    #[test]
    fn descendants_keep_intermediate_nodes_alive() {
        let root = StateMonitor::make_root("root");
        let mid = root.make_child("expansions");
        let leaf = mid.make_child("movies/is_comedy");
        leaf.insert("items_outstanding", 12);
        assert!(root.to_tree().find("movies/is_comedy").is_some());
        // A live leaf holds its parent chain: dropping the intermediate
        // handle must not orphan the leaf from the root's view.
        drop(mid);
        assert!(root.to_tree().find("movies/is_comedy").is_some());
        // Dropping the leaf releases the whole now-empty subtree.
        drop(leaf);
        assert!(root.to_tree().find("expansions").is_none());
        assert_eq!(root.child_count(), 0);
    }

    #[test]
    fn a_child_made_with_values_equals_one_filled_after() {
        let root = StateMonitor::make_root("root");
        let later = root.make_child("query");
        later.insert("tenant", "default");
        later.insert("sql", "SELECT 1");
        let at_once = root.make_child_with(
            "query",
            [
                ("tenant", "default".into()),
                ("sql", String::from("SELECT 1").into()),
            ],
        );
        let tree = root.to_tree();
        assert_eq!(tree.children.len(), 2);
        assert_eq!(tree.children[0].values, tree.children[1].values);
        assert_eq!(tree.children[0].values[0].0, "sql");
        drop(later);
        assert_eq!(root.child_count(), 1);
        drop(at_once);
        assert_eq!(root.child_count(), 0);
    }

    #[test]
    fn siblings_list_by_name_then_creation() {
        let root = StateMonitor::make_root("root");
        let _b = root.make_child("b");
        let _a1 = root.make_child(String::from("a"));
        let _a2 = root.make_child("a");
        let _a2_leaf = _a2.make_child("leaf");
        let tree = root.to_tree();
        let names: Vec<_> = tree.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["a", "a", "b"]);
        assert!(tree.children[0].children.is_empty());
        assert_eq!(tree.children[1].children.len(), 1);
    }

    #[test]
    fn values_update_and_remove() {
        let root = StateMonitor::make_root("root");
        root.insert("state", "idle");
        root.insert("state", "busy");
        root.insert("depth", 3);
        root.remove("depth");
        let tree = root.to_tree();
        assert_eq!(tree.value("state"), Some("busy"));
        assert_eq!(tree.value("depth"), None);
    }

    #[test]
    fn render_is_indented_and_complete() {
        let root = StateMonitor::make_root("crowddb");
        root.insert("queries_active", 1);
        let exp = root.make_child("expansions");
        let leaf = exp.make_child("movies/is_comedy");
        leaf.insert("cost_so_far", "$2.50");
        let rendered = root.render_tree();
        assert!(rendered.starts_with("crowddb\n"));
        assert!(rendered.contains("  queries_active: 1\n"));
        assert!(rendered.contains("  expansions\n"));
        assert!(rendered.contains("    movies/is_comedy\n"));
        assert!(rendered.contains("      cost_so_far: $2.50\n"));
    }
}
