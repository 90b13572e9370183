//! Property-based tests for the workflow DAG and scheduler.

use proptest::prelude::*;

use smartflux_datastore::{ContainerRef, DataStore, Value};
use smartflux_wms::{
    FnStep, GraphBuilder, Scheduler, StepContext, StepId, SynchronousPolicy, TriggerPolicy,
    Workflow,
};

/// Random forward-edge DAGs: edges only go from lower to higher indices,
/// guaranteeing acyclicity by construction.
fn forward_dag() -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    (2usize..10).prop_flat_map(|n| {
        let edges = prop::collection::vec((0..n - 1, 1..n), 0..20).prop_map(move |raw| {
            raw.into_iter()
                .filter_map(|(a, b)| {
                    let (lo, hi) = (a.min(b), a.max(b));
                    if lo == hi {
                        None
                    } else {
                        Some((lo, hi))
                    }
                })
                .collect::<Vec<_>>()
        });
        (Just(n), edges)
    })
}

/// Random DAGs whose insertion order is *not* a topological order: every
/// step gets a random rank and edges run from lower to higher rank, so
/// Kahn's tie-breaking by insertion index sees arbitrary layouts.
fn shuffled_dag() -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    (2usize..12).prop_flat_map(|n| {
        let keys = prop::collection::vec(0u64..1_000_000, n);
        let pairs = prop::collection::vec((0..n, 0..n), 0..30);
        (keys, pairs).prop_map(move |(keys, pairs)| {
            let mut by_rank: Vec<usize> = (0..n).collect();
            by_rank.sort_by_key(|&i| (keys[i], i));
            let edges = pairs
                .into_iter()
                .filter(|(a, b)| a != b)
                .map(|(a, b)| (by_rank[a.min(b)], by_rank[a.max(b)]))
                .collect();
            (n, edges)
        })
    })
}

fn build_graph(n: usize, edges: &[(usize, usize)]) -> smartflux_wms::WorkflowGraph {
    let mut b = GraphBuilder::new("prop");
    let ids: Vec<StepId> = (0..n).map(|i| b.add_step(format!("s{i}"))).collect();
    for &(from, to) in edges {
        b.add_edge(ids[from], ids[to])
            .expect("forward edges are valid");
    }
    b.build().expect("forward-edge graphs are DAGs")
}

proptest! {
    /// Topological order contains every step exactly once and respects all
    /// edges.
    #[test]
    fn topo_order_is_a_valid_linearisation((n, edges) in forward_dag()) {
        let g = build_graph(n, &edges);
        let order = g.topo_order();
        prop_assert_eq!(order.len(), n);
        let pos = |id: StepId| order.iter().position(|&x| x == id).expect("present");
        for id in g.step_ids() {
            for &succ in g.successors(id) {
                prop_assert!(pos(id) < pos(succ), "edge {id} → {succ} violated");
            }
        }
    }

    /// Each cached level is 1 + the deepest predecessor's level (0 for
    /// sources), and topological order never steps back to a lower level —
    /// the level-parallel wave loop flushes where the level changes.
    #[test]
    fn topo_order_visits_levels_in_non_decreasing_order((n, edges) in shuffled_dag()) {
        let g = build_graph(n, &edges);
        for id in g.step_ids() {
            let expected = g.predecessors(id).iter().map(|&p| g.level(p) + 1).max().unwrap_or(0);
            prop_assert_eq!(g.level(id), expected, "level of {}", id);
        }
        for pair in g.topo_order().windows(2) {
            prop_assert!(
                g.level(pair[0]) <= g.level(pair[1]),
                "{} (level {}) precedes {} (level {})",
                pair[0], g.level(pair[0]), pair[1], g.level(pair[1])
            );
        }
    }

    /// `precedes` agrees with reachability implied by the edges.
    #[test]
    fn precedes_matches_reachability((n, edges) in forward_dag()) {
        let g = build_graph(n, &edges);
        // Floyd-Warshall-style closure over the small graph.
        let mut reach = vec![vec![false; n]; n];
        for id in g.step_ids() {
            for &s in g.successors(id) {
                reach[id.index()][s.index()] = true;
            }
        }
        for k in 0..n {
            for i in 0..n {
                for j in 0..n {
                    if reach[i][k] && reach[k][j] {
                        reach[i][j] = true;
                    }
                }
            }
        }
        for a in g.step_ids() {
            for b in g.step_ids() {
                prop_assert_eq!(g.precedes(a, b), reach[a.index()][b.index()]);
            }
        }
    }

    /// Sources plus sinks are consistent with predecessor/successor counts.
    #[test]
    fn sources_and_sinks_are_boundary_steps((n, edges) in forward_dag()) {
        let g = build_graph(n, &edges);
        for id in g.sources() {
            prop_assert!(g.predecessors(id).is_empty());
        }
        for id in g.sinks() {
            prop_assert!(g.successors(id).is_empty());
        }
        prop_assert!(!g.sources().is_empty());
        prop_assert!(!g.sinks().is_empty());
    }

    /// Under the synchronous policy, every step executes exactly once per
    /// wave regardless of DAG shape.
    #[test]
    fn synchronous_scheduling_is_total((n, edges) in forward_dag(), waves in 1u64..5) {
        let g = build_graph(n, &edges);
        let store = DataStore::new();
        store.ensure_container(&ContainerRef::family("t", "f")).expect("fresh store");
        let mut wf = Workflow::new(g);
        for id in wf.graph().step_ids().collect::<Vec<_>>() {
            let name = wf.graph().step_name(id).to_owned();
            wf.bind(id, FnStep::new(move |ctx: &StepContext| {
                let prev = ctx.get_f64("t", "f", &name, "count", 0.0)?;
                ctx.put("t", "f", &name, "count", Value::from(prev + 1.0))?;
                Ok(())
            }));
        }
        let mut sched = Scheduler::new(wf, store.clone(), Box::new(SynchronousPolicy));
        sched.run_waves(waves).expect("synchronous run succeeds");
        for i in 0..n {
            let count = store.get("t", "f", &format!("s{i}"), "count").expect("family exists");
            prop_assert_eq!(count.and_then(|v| v.as_f64()), Some(waves as f64));
        }
    }

    /// A policy that skips everything executes only always-run sources, and
    /// executed + skipped + deferred accounts for every step each wave.
    #[test]
    fn decision_accounting_is_complete((n, edges) in forward_dag()) {
        struct Never;
        impl TriggerPolicy for Never {
            fn should_trigger(&mut self, _w: u64, _s: StepId, _wf: &Workflow) -> bool {
                false
            }
        }
        let g = build_graph(n, &edges);
        let store = DataStore::new();
        store.ensure_container(&ContainerRef::family("t", "f")).expect("fresh store");
        let mut wf = Workflow::new(g);
        let sources = wf.graph().sources();
        for id in wf.graph().step_ids().collect::<Vec<_>>() {
            let mut binding = wf.bind(id, FnStep::new(|_: &StepContext| Ok(())));
            if sources.contains(&id) {
                binding.source();
            }
        }
        let mut sched = Scheduler::new(wf, store, Box::new(Never));
        let outcome = sched.run_wave().expect("wave succeeds");
        prop_assert_eq!(
            outcome.executed.len() + outcome.skipped.len() + outcome.deferred.len(),
            n
        );
        for id in &outcome.executed {
            prop_assert!(sources.contains(id), "only sources may run");
        }
    }
}
