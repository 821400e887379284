//! The task DAG and its hit-pruned, work-stealing scheduler.
//!
//! A node is a label (human name, stable across runs — `explain`
//! addresses nodes by it), identity parts (what [`TaskKey::derive`]
//! hashes), dependency edges to earlier nodes, and a closure from
//! dependency payloads to a payload. Edges always point to
//! already-added nodes, so the graph is acyclic by construction and
//! insertion order is a topological order.
//!
//! Scheduling is demand-driven from the requested roots, in two
//! phases:
//!
//! 1. **Prune.** Walk nodes in reverse topological order. A node is
//!    *required* when it is a root or a store-missing required
//!    dependent demands it. Required nodes probe the store: a hit
//!    binds the stored payload and — because the key commits to the
//!    whole dependency subtree — demands nothing below it; a miss
//!    schedules the node and demands its dependencies. Everything
//!    never demanded is pruned without even a store probe.
//! 2. **Execute.** Missing nodes run on a worker pool: each worker
//!    owns a LIFO deque (depth-first, cache-warm) and steals FIFO
//!    from its peers when empty. A finished node decrements its
//!    dependents' pending counts and publishes its payload to the
//!    store immediately, so an interrupted campaign resumes from
//!    what it already computed. A failed node fails; its dependents
//!    are skipped, everything else keeps running.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::key::TaskKey;
use crate::monitor::Monitor;
use crate::store::Store;

/// Index of a node within its [`Dag`].
pub type TaskId = usize;

type RunFn = Box<dyn Fn(&TaskCtx<'_>) -> Result<Vec<u8>, String> + Send + Sync>;

struct Node {
    label: String,
    parts: Vec<String>,
    deps: Vec<TaskId>,
    run: RunFn,
}

/// A directed acyclic graph of content-addressed tasks.
#[derive(Default)]
pub struct Dag {
    nodes: Vec<Node>,
    keys: Vec<TaskKey>,
    by_key: HashMap<TaskKey, TaskId>,
}

/// What the dependency payloads look like from inside a node's
/// closure.
pub struct TaskCtx<'a> {
    payloads: &'a [OnceLock<Arc<Vec<u8>>>],
    deps: &'a [TaskId],
}

impl TaskCtx<'_> {
    /// Number of dependencies.
    #[must_use]
    pub fn dep_count(&self) -> usize {
        self.deps.len()
    }

    /// The `i`-th dependency's payload, in edge order. Resolved before
    /// the node is scheduled (from the store or a completed run).
    #[must_use]
    pub fn dep(&self, i: usize) -> &[u8] {
        self.payloads[self.deps[i]].get().map_or(&[][..], |arc| arc.as_slice())
    }
}

/// How one node resolved.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Never demanded (a store hit above it made it irrelevant).
    Pruned,
    /// Payload served from the store.
    Hit,
    /// Ran and published its payload.
    Computed,
    /// Ran and failed with this message.
    Failed(String),
    /// Not run because a dependency failed.
    Skipped,
}

/// One node's resolution in a [`RunReport`].
#[derive(Clone, Debug)]
pub struct NodeOutcome {
    /// The node's label.
    pub label: String,
    /// The node's content-addressed key.
    pub key: TaskKey,
    /// How it resolved.
    pub outcome: Outcome,
    /// Wall time spent executing (zero unless it ran).
    pub wall: Duration,
}

/// The result of one [`Dag::run`].
#[derive(Debug)]
pub struct RunReport {
    /// Per-node outcomes, indexed by [`TaskId`].
    pub nodes: Vec<NodeOutcome>,
    /// Store publishes that failed (the computation still counts; the
    /// next run will recompute instead of hit).
    pub store_put_errors: usize,
    payloads: Vec<Option<Arc<Vec<u8>>>>,
}

impl RunReport {
    /// The payload of a hit or computed node.
    #[must_use]
    pub fn payload(&self, id: TaskId) -> Option<&[u8]> {
        self.payloads.get(id).and_then(|p| p.as_deref().map(Vec::as_slice))
    }

    fn count(&self, want: fn(&Outcome) -> bool) -> usize {
        self.nodes.iter().filter(|n| want(&n.outcome)).count()
    }

    /// Nodes served from the store.
    #[must_use]
    pub fn hits(&self) -> usize {
        self.count(|o| matches!(o, Outcome::Hit))
    }

    /// Nodes that were demanded but absent from the store (computed,
    /// failed or skipped — every one began as a store miss).
    #[must_use]
    pub fn misses(&self) -> usize {
        self.count(|o| matches!(o, Outcome::Computed | Outcome::Failed(_) | Outcome::Skipped))
    }

    /// Nodes that ran and failed.
    #[must_use]
    pub fn failed(&self) -> usize {
        self.count(|o| matches!(o, Outcome::Failed(_)))
    }

    /// Nodes skipped because a dependency failed.
    #[must_use]
    pub fn skipped(&self) -> usize {
        self.count(|o| matches!(o, Outcome::Skipped))
    }

    /// Nodes never demanded.
    #[must_use]
    pub fn pruned(&self) -> usize {
        self.count(|o| matches!(o, Outcome::Pruned))
    }

    /// `(label, message)` for every failed node, in node order.
    #[must_use]
    pub fn failures(&self) -> Vec<(&str, &str)> {
        self.nodes
            .iter()
            .filter_map(|n| match &n.outcome {
                Outcome::Failed(message) => Some((n.label.as_str(), message.as_str())),
                _ => None,
            })
            .collect()
    }

    /// `true` when every demanded node resolved to a payload.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.failed() == 0 && self.skipped() == 0
    }
}

impl Dag {
    /// An empty graph.
    #[must_use]
    pub fn new() -> Dag {
        Dag::default()
    }

    /// Adds a node; `deps` must be ids returned by earlier `add`
    /// calls. The key is derived immediately from `parts` and the
    /// dependency keys. If a node with the identical key already
    /// exists, that node's id is returned and the new closure is
    /// dropped — identical keys mean identical payloads by
    /// construction, which is how plans share work (e.g. one measure
    /// node feeding two figure manifests).
    ///
    /// # Panics
    ///
    /// If a dependency id is out of range (a plan-builder bug, not a
    /// runtime condition).
    pub fn add(
        &mut self,
        label: impl Into<String>,
        parts: &[&str],
        deps: &[TaskId],
        run: impl Fn(&TaskCtx<'_>) -> Result<Vec<u8>, String> + Send + Sync + 'static,
    ) -> TaskId {
        assert!(
            deps.iter().all(|&d| d < self.nodes.len()),
            "dependency id out of range (deps must be added first)"
        );
        let dep_keys: Vec<TaskKey> = deps.iter().map(|&d| self.keys[d]).collect();
        let key = TaskKey::derive(parts, &dep_keys);
        if let Some(&existing) = self.by_key.get(&key) {
            return existing;
        }
        let id = self.nodes.len();
        self.nodes.push(Node {
            label: label.into(),
            parts: parts.iter().map(|&p| p.to_string()).collect(),
            deps: deps.to_vec(),
            run: Box::new(run),
        });
        self.keys.push(key);
        self.by_key.insert(key, id);
        id
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// A node's label.
    #[must_use]
    pub fn label(&self, id: TaskId) -> &str {
        &self.nodes[id].label
    }

    /// A node's identity parts.
    #[must_use]
    pub fn parts(&self, id: TaskId) -> &[String] {
        &self.nodes[id].parts
    }

    /// A node's dependency edges.
    #[must_use]
    pub fn deps(&self, id: TaskId) -> &[TaskId] {
        &self.nodes[id].deps
    }

    /// A node's content-addressed key.
    #[must_use]
    pub fn key(&self, id: TaskId) -> TaskKey {
        self.keys[id]
    }

    /// Every key in the graph (the pin set a pre-run `gc` must keep).
    #[must_use]
    pub fn all_keys(&self) -> Vec<TaskKey> {
        self.keys.clone()
    }

    /// The first node whose label is `label`.
    #[must_use]
    pub fn find(&self, label: &str) -> Option<TaskId> {
        self.nodes.iter().position(|n| n.label == label)
    }

    /// Runs the graph: prune from `roots` (empty slice = every node
    /// without dependents), serve hits from `store`, execute misses on
    /// `workers` threads, publish computed payloads back to `store`.
    #[must_use]
    pub fn run(
        &self,
        store: &Store,
        roots: &[TaskId],
        workers: usize,
        monitor: &dyn Monitor,
    ) -> RunReport {
        let n = self.nodes.len();
        let mut dependents: Vec<Vec<TaskId>> = vec![Vec::new(); n];
        for (id, node) in self.nodes.iter().enumerate() {
            for &dep in &node.deps {
                dependents[dep].push(id);
            }
        }
        let mut is_root = vec![false; n];
        if roots.is_empty() {
            for (id, deps) in dependents.iter().enumerate() {
                is_root[id] = deps.is_empty();
            }
        } else {
            for &root in roots {
                is_root[root] = true;
            }
        }

        // Phase 1: demand-driven pruning, reverse topological order
        // (every dependent has a larger id than its dependencies).
        #[derive(Clone, Copy, PartialEq)]
        enum Slot {
            Pruned,
            Hit,
            Run,
        }
        let mut slot = vec![Slot::Pruned; n];
        let mut demanded = vec![false; n];
        let payloads: Vec<OnceLock<Arc<Vec<u8>>>> = (0..n).map(|_| OnceLock::new()).collect();
        for id in (0..n).rev() {
            if !(is_root[id] || demanded[id]) {
                continue;
            }
            match store.get(&self.keys[id]) {
                Some(bytes) => {
                    slot[id] = Slot::Hit;
                    let _ = payloads[id].set(Arc::new(bytes));
                    monitor.store_hit(&self.nodes[id].label, &self.keys[id]);
                }
                None => {
                    slot[id] = Slot::Run;
                    monitor.store_miss(&self.nodes[id].label, &self.keys[id]);
                    for &dep in &self.nodes[id].deps {
                        demanded[dep] = true;
                    }
                }
            }
        }

        // Phase 2: execute the misses.
        enum Exec {
            Done(Duration),
            Failed(String, Duration),
            Skipped,
        }
        let run_ids: Vec<TaskId> = (0..n).filter(|&id| matches!(slot[id], Slot::Run)).collect();
        let results: Vec<OnceLock<Exec>> = (0..n).map(|_| OnceLock::new()).collect();
        let put_errors = AtomicUsize::new(0);
        if !run_ids.is_empty() {
            let workers = workers.clamp(1, run_ids.len());
            let pending: Vec<AtomicUsize> = (0..n)
                .map(|id| {
                    AtomicUsize::new(
                        self.nodes[id].deps.iter().filter(|&&d| slot[d] == Slot::Run).count(),
                    )
                })
                .collect();
            let dep_failed: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
            let queues: Vec<Mutex<VecDeque<TaskId>>> =
                (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
            let injector: Mutex<VecDeque<TaskId>> = Mutex::new(
                run_ids
                    .iter()
                    .copied()
                    .filter(|&id| pending[id].load(Ordering::Relaxed) == 0)
                    .collect(),
            );
            let remaining = AtomicUsize::new(run_ids.len());
            let idle = (Mutex::new(()), Condvar::new());

            let pop = |worker: usize| -> Option<TaskId> {
                if let Some(id) = lock(&queues[worker]).pop_back() {
                    return Some(id);
                }
                for offset in 1..queues.len() {
                    let victim = (worker + offset) % queues.len();
                    if let Some(id) = lock(&queues[victim]).pop_front() {
                        return Some(id);
                    }
                }
                lock(&injector).pop_front()
            };

            let finish = |id: TaskId, ok: bool, worker: usize| {
                for &dependent in &dependents[id] {
                    if slot[dependent] != Slot::Run {
                        continue;
                    }
                    if !ok {
                        dep_failed[dependent].store(true, Ordering::Relaxed);
                    }
                    if pending[dependent].fetch_sub(1, Ordering::AcqRel) == 1 {
                        lock(&queues[worker]).push_back(dependent);
                        idle.1.notify_all();
                    }
                }
                if remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                    idle.1.notify_all();
                }
            };

            std::thread::scope(|scope| {
                for worker in 0..workers {
                    let pop = &pop;
                    let finish = &finish;
                    let results = &results;
                    let payloads = &payloads;
                    let dep_failed = &dep_failed;
                    let remaining = &remaining;
                    let idle = &idle;
                    let put_errors = &put_errors;
                    scope.spawn(move || loop {
                        if remaining.load(Ordering::Acquire) == 0 {
                            break;
                        }
                        let Some(id) = pop(worker) else {
                            let guard = lock(&idle.0);
                            // Re-check under the lock so a notify
                            // between pop and wait is not lost.
                            if remaining.load(Ordering::Acquire) == 0 {
                                break;
                            }
                            let _unused = match idle.1.wait_timeout(guard, Duration::from_millis(5))
                            {
                                Ok((guard, _)) => guard,
                                Err(poisoned) => poisoned.into_inner().0,
                            };
                            continue;
                        };
                        if dep_failed[id].load(Ordering::Relaxed) {
                            let _ = results[id].set(Exec::Skipped);
                            finish(id, false, worker);
                            continue;
                        }
                        let ctx = TaskCtx { payloads, deps: &self.nodes[id].deps };
                        let started = Instant::now();
                        let outcome = (self.nodes[id].run)(&ctx);
                        let wall = started.elapsed();
                        let ok = outcome.is_ok();
                        monitor.node_done(&self.nodes[id].label, &self.keys[id], wall, ok);
                        match outcome {
                            Ok(bytes) => {
                                if store.put(&self.keys[id], &self.nodes[id].label, &bytes).is_err()
                                {
                                    put_errors.fetch_add(1, Ordering::Relaxed);
                                }
                                let _ = payloads[id].set(Arc::new(bytes));
                                let _ = results[id].set(Exec::Done(wall));
                            }
                            Err(message) => {
                                let _ = results[id].set(Exec::Failed(message, wall));
                            }
                        }
                        finish(id, ok, worker);
                    });
                }
            });
        }

        let mut nodes = Vec::with_capacity(n);
        let mut out_payloads = Vec::with_capacity(n);
        for id in 0..n {
            let (outcome, wall) = match slot[id] {
                Slot::Pruned => (Outcome::Pruned, Duration::ZERO),
                Slot::Hit => (Outcome::Hit, Duration::ZERO),
                Slot::Run => match results[id].get() {
                    Some(Exec::Done(wall)) => (Outcome::Computed, *wall),
                    Some(Exec::Failed(message, wall)) => (Outcome::Failed(message.clone()), *wall),
                    Some(Exec::Skipped) | None => (Outcome::Skipped, Duration::ZERO),
                },
            };
            nodes.push(NodeOutcome {
                label: self.nodes[id].label.clone(),
                key: self.keys[id],
                outcome,
                wall,
            });
            out_payloads.push(payloads[id].get().cloned());
        }
        RunReport {
            nodes,
            store_put_errors: put_errors.load(Ordering::Relaxed),
            payloads: out_payloads,
        }
    }
}

/// Poison-tolerant mutex lock (mirrors the engine's helper): a worker
/// panicking mid-queue-access must not wedge the whole campaign.
fn lock<'a, T>(mutex: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    mutex.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::NullMonitor;

    fn temp_store(tag: &str) -> Store {
        let root = std::env::temp_dir().join(format!("wp-dag-unit-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        Store::new(root)
    }

    fn payload_chain_dag(counter: Arc<AtomicUsize>) -> Dag {
        let mut dag = Dag::new();
        let c1 = Arc::clone(&counter);
        let leaf = dag.add("leaf", &["leaf", "v1"], &[], move |_| {
            c1.fetch_add(1, Ordering::Relaxed);
            Ok(b"leaf-payload".to_vec())
        });
        let c2 = Arc::clone(&counter);
        dag.add("root", &["root"], &[leaf], move |ctx| {
            c2.fetch_add(1, Ordering::Relaxed);
            let mut out = ctx.dep(0).to_vec();
            out.extend_from_slice(b"+root");
            Ok(out)
        });
        dag
    }

    #[test]
    fn cold_run_computes_warm_run_hits_root_only() {
        let store = temp_store("warm");
        let counter = Arc::new(AtomicUsize::new(0));
        let dag = payload_chain_dag(Arc::clone(&counter));
        let cold = dag.run(&store, &[], 2, &NullMonitor);
        assert!(cold.ok());
        assert_eq!((cold.hits(), cold.misses()), (0, 2));
        assert_eq!(cold.payload(1), Some(&b"leaf-payload+root"[..]));
        assert_eq!(counter.load(Ordering::Relaxed), 2);

        let warm = dag.run(&store, &[], 2, &NullMonitor);
        assert!(warm.ok());
        // The root hits; the leaf is pruned without a store probe.
        assert_eq!((warm.hits(), warm.misses(), warm.pruned()), (1, 0, 1));
        assert_eq!(warm.payload(1), Some(&b"leaf-payload+root"[..]));
        assert_eq!(counter.load(Ordering::Relaxed), 2, "warm run must not recompute");
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn changed_leaf_identity_recomputes_the_chain() {
        let store = temp_store("invalidate");
        let counter = Arc::new(AtomicUsize::new(0));
        let dag = payload_chain_dag(Arc::clone(&counter));
        assert!(dag.run(&store, &[], 1, &NullMonitor).ok());

        // Same shape, but the leaf's identity changed: both keys move.
        let mut changed = Dag::new();
        let c1 = Arc::clone(&counter);
        let leaf = changed.add("leaf", &["leaf", "v2"], &[], move |_| {
            c1.fetch_add(1, Ordering::Relaxed);
            Ok(b"leaf-payload-2".to_vec())
        });
        let c2 = Arc::clone(&counter);
        changed.add("root", &["root"], &[leaf], move |ctx| {
            c2.fetch_add(1, Ordering::Relaxed);
            let mut out = ctx.dep(0).to_vec();
            out.extend_from_slice(b"+root");
            Ok(out)
        });
        let rerun = changed.run(&store, &[], 1, &NullMonitor);
        assert_eq!((rerun.hits(), rerun.misses()), (0, 2));
        assert_eq!(rerun.payload(1), Some(&b"leaf-payload-2+root"[..]));
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn failure_skips_dependents_but_not_siblings() {
        let store = temp_store("failure");
        let mut dag = Dag::new();
        let bad = dag.add("bad", &["bad"], &[], |_| Err("boom".to_string()));
        let _downstream = dag.add("down", &["down"], &[bad], |_| Ok(Vec::new()));
        let _sibling = dag.add("sibling", &["sibling"], &[], |_| Ok(b"ok".to_vec()));
        let report = dag.run(&store, &[], 2, &NullMonitor);
        assert!(!report.ok());
        assert_eq!(report.nodes[0].outcome, Outcome::Failed("boom".to_string()));
        assert_eq!(report.nodes[1].outcome, Outcome::Skipped);
        assert_eq!(report.nodes[2].outcome, Outcome::Computed);
        assert_eq!(report.failures(), vec![("bad", "boom")]);
        // Nothing under the failed node was published.
        assert!(!store.contains(&dag.key(0)));
        assert!(store.contains(&dag.key(2)));
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn identical_keys_share_one_node() {
        let mut dag = Dag::new();
        let a = dag.add("shared", &["measure", "crc"], &[], |_| Ok(Vec::new()));
        let b = dag.add("shared-again", &["measure", "crc"], &[], |_| Ok(Vec::new()));
        assert_eq!(a, b);
        assert_eq!(dag.len(), 1);
    }

    #[test]
    fn roots_select_a_subgraph() {
        let store = temp_store("roots");
        let mut dag = Dag::new();
        let a = dag.add("a", &["a"], &[], |_| Ok(b"a".to_vec()));
        let _b = dag.add("b", &["b"], &[], |_| Ok(b"b".to_vec()));
        let c = dag.add("c", &["c"], &[a], |_| Ok(b"c".to_vec()));
        let report = dag.run(&store, &[c], 1, &NullMonitor);
        assert_eq!(report.nodes[1].outcome, Outcome::Pruned, "b is not under the root");
        assert_eq!(report.nodes[2].outcome, Outcome::Computed);
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn wide_fanout_executes_fully_on_many_workers() {
        let store = temp_store("fanout");
        let mut dag = Dag::new();
        let leaves: Vec<TaskId> = (0..32)
            .map(|i| {
                let tag = format!("leaf-{i}");
                let payload = tag.clone().into_bytes();
                dag.add(tag.clone(), &["fan", &tag], &[], move |_| Ok(payload.clone()))
            })
            .collect();
        dag.add("join", &["join"], &leaves, |ctx| {
            let mut out = Vec::new();
            for i in 0..ctx.dep_count() {
                out.extend_from_slice(ctx.dep(i));
            }
            Ok(out)
        });
        let report = dag.run(&store, &[], 8, &NullMonitor);
        assert!(report.ok());
        assert_eq!(report.misses(), 33);
        let joined = report.payload(32).map(<[u8]>::to_vec);
        // Deterministic join payload regardless of execution order.
        let expected: Vec<u8> = (0..32).flat_map(|i| format!("leaf-{i}").into_bytes()).collect();
        assert_eq!(joined.as_deref(), Some(expected.as_slice()));
        let _ = std::fs::remove_dir_all(store.root());
    }
}
