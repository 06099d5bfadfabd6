//! End-to-end conformance matrix: every iterator semantics crossed with
//! every environment, checked against every figure.
//!
//! This is the repo's central correctness statement: the implementations
//! conform to exactly the figures the paper says they should, and the
//! stricter figures reject exactly the environments their constraints
//! forbid.

use weak_sets::prelude::*;

/// The environments of §3's design-space dimensions.
#[derive(Clone, Copy, Debug, PartialEq)]
#[allow(dead_code)] // Quiescent is the implicit default in several tests
enum Env {
    /// No mutation, no failures.
    Quiescent,
    /// Concurrent additions only.
    Growing,
    /// Concurrent additions and removals.
    Churning,
    /// A mid-run partition that heals.
    PartitionHeal,
}

struct Deployment {
    world: StoreWorld,
    set: WeakSet,
    servers: Vec<NodeId>,
}

fn deploy(seed: u64) -> Deployment {
    let mut topo = Topology::new();
    let client_node = topo.add_node("client", 0);
    let servers: Vec<NodeId> = (0..4)
        .map(|i| topo.add_node(format!("s{i}"), i + 1))
        .collect();
    let mut world = StoreWorld::new(
        seed,
        topo,
        LatencyModel::Constant(SimDuration::from_millis(5)),
    );
    for &s in &servers {
        world.install_service(s, Box::new(StoreServer::new()));
    }
    let client = StoreClient::new(client_node, SimDuration::from_millis(150));
    let cref = CollectionRef::unreplicated(CollectionId(1), servers[0]);
    client.create_collection(&mut world, &cref).unwrap();
    let set = WeakSet::new(client, cref);
    for i in 0..12u64 {
        let home = servers[(i % 4) as usize];
        set.add(
            &mut world,
            ObjectRecord::new(ObjectId(i + 1), format!("o{i}"), &b"x"[..]),
            home,
        )
        .unwrap();
    }
    Deployment {
        world,
        set,
        servers,
    }
}

fn apply_env(d: &mut Deployment, env: Env) {
    let cref = d.set.cref().clone();
    match env {
        Env::Quiescent => {}
        Env::Growing | Env::Churning => {
            // Scheduled loopback mutations, spread over the expected run.
            for k in 0..8u64 {
                let at = d.world.now() + SimDuration::from_millis(30 * (k + 1));
                let cref = cref.clone();
                let home = d.servers[(k % 4) as usize];
                let remove = env == Env::Churning && k % 2 == 1;
                d.world.spawn_at(at, move |w: &mut StoreWorld| {
                    let primary = w
                        .service_mut::<StoreServer>(cref.home)
                        .expect("primary service");
                    if remove {
                        primary.apply(StoreMsg::RemoveMember {
                            coll: cref.id,
                            elem: ObjectId(k + 1),
                        });
                    } else {
                        primary.apply(StoreMsg::AddMember {
                            coll: cref.id,
                            entry: MemberEntry {
                                elem: ObjectId(100 + k),
                                home,
                            },
                        });
                    }
                });
                // The added objects must exist to be fetchable.
                if !remove {
                    let rec = ObjectRecord::new(ObjectId(100 + k), format!("fresh{k}"), &b"y"[..]);
                    d.world
                        .service_mut::<StoreServer>(home)
                        .expect("service")
                        .preload_object(rec);
                }
            }
        }
        Env::PartitionHeal => {
            let victim = d.servers[3];
            let t0 = d.world.now();
            d.world.install_plan(
                &FaultPlan::none()
                    .partition_at(t0 + SimDuration::from_millis(50), &[victim])
                    .heal_at(t0 + SimDuration::from_millis(400)),
            );
        }
    }
}

/// Drives an observed iterator to its end, returning the computation.
fn observed_run(d: &mut Deployment, semantics: Semantics) -> (Computation, IterStep) {
    let mut it = d.set.elements_observed(semantics);
    let mut blocks = 0;
    let end = loop {
        match it.next(&mut d.world) {
            IterStep::Yielded(_) => {}
            IterStep::Blocked => {
                blocks += 1;
                if blocks > 30 {
                    break IterStep::Blocked;
                }
                d.world.sleep(SimDuration::from_millis(40));
            }
            step => break step,
        }
    };
    (it.take_computation(&d.world).expect("observed"), end)
}

#[test]
fn quiescent_runs_conform_to_every_figure() {
    for semantics in Semantics::ALL {
        let mut d = deploy(1);
        let (comp, end) = observed_run(&mut d, semantics);
        assert_eq!(end, IterStep::Done, "{semantics}");
        for fig in Figure::ALL {
            assert!(
                check_computation(fig, &comp).is_ok(),
                "{semantics} vs {fig}"
            );
        }
    }
}

#[test]
fn growing_env_matches_paper_matrix() {
    // Snapshot under growth: conforms to Fig4 (and the growth makes Fig5
    // reject its early return). Grow-only and optimistic conform to
    // their figures.
    let mut d = deploy(2);
    apply_env(&mut d, Env::Growing);
    let (comp, end) = observed_run(&mut d, Semantics::Snapshot);
    assert_eq!(end, IterStep::Done);
    assert!(check_computation(Figure::Fig4, &comp).is_ok());
    assert!(!check_computation(Figure::Fig3, &comp).is_ok());
    assert!(!check_computation(Figure::Fig5, &comp).is_ok());

    let mut d = deploy(3);
    apply_env(&mut d, Env::Growing);
    let (comp, end) = observed_run(&mut d, Semantics::GrowOnly);
    assert_eq!(end, IterStep::Done);
    assert!(check_computation(Figure::Fig5, &comp).is_ok());
    assert!(check_computation(Figure::Fig6, &comp).is_ok());

    let mut d = deploy(4);
    apply_env(&mut d, Env::Growing);
    let (comp, end) = observed_run(&mut d, Semantics::Optimistic);
    assert_eq!(end, IterStep::Done);
    assert!(check_computation(Figure::Fig6, &comp).is_ok());
}

#[test]
fn churning_env_only_the_weak_figures_survive() {
    let mut d = deploy(5);
    apply_env(&mut d, Env::Churning);
    let (comp, end) = observed_run(&mut d, Semantics::Snapshot);
    assert_eq!(end, IterStep::Done);
    assert!(check_computation(Figure::Fig4, &comp).is_ok());
    assert!(!check_computation(Figure::Fig1, &comp).is_ok());

    let mut d = deploy(6);
    apply_env(&mut d, Env::Churning);
    let (comp, end) = observed_run(&mut d, Semantics::Optimistic);
    assert_eq!(end, IterStep::Done);
    let conf = check_computation(Figure::Fig6, &comp);
    conf.assert_ok();
    // Shrinkage breaks Fig5's constraint for the same trace.
    assert!(!check_computation(Figure::Fig5, &comp).is_ok());
}

#[test]
fn partition_heal_differentiates_failure_handling() {
    // Snapshot (pessimistic): fails during the outage.
    let mut d = deploy(7);
    apply_env(&mut d, Env::PartitionHeal);
    let (comp, end) = observed_run(&mut d, Semantics::Snapshot);
    assert!(matches!(end, IterStep::Failed(_)));
    assert!(check_computation(Figure::Fig3, &comp).is_ok());
    assert!(check_computation(Figure::Fig4, &comp).is_ok());

    // Optimistic: blocks through the outage and finishes after the heal.
    let mut d = deploy(8);
    apply_env(&mut d, Env::PartitionHeal);
    let (comp, end) = observed_run(&mut d, Semantics::Optimistic);
    assert_eq!(end, IterStep::Done);
    check_computation(Figure::Fig6, &comp).assert_ok();
    let run = &comp.runs[0];
    assert_eq!(run.yielded_set().len(), 12, "full availability after heal");
}

#[test]
fn locked_iteration_conforms_with_relaxed_constraint_under_churn() {
    let mut d = deploy(9);
    apply_env(&mut d, Env::Churning);
    let (comp, end) = observed_run(&mut d, Semantics::Locked);
    assert_eq!(end, IterStep::Done);
    // While the lock is held the set cannot change; mutations bounced.
    Checker::new(Figure::Fig3)
        .with_constraint(ConstraintKind::ImmutableDuringRuns)
        .check(&comp)
        .assert_ok();
}

#[test]
fn taxonomy_of_runs_matches_section_4_floors() {
    let mut d = deploy(10);
    apply_env(&mut d, Env::Growing);
    let (comp, _) = observed_run(&mut d, Semantics::GrowOnly);
    let class = classify_run(&comp, &comp.runs[0]);
    assert_eq!(class.currency, Currency::FirstBound);

    let mut d = deploy(11);
    let (comp, _) = observed_run(&mut d, Semantics::Snapshot);
    let class = classify_run(&comp, &comp.runs[0]);
    assert_eq!(class.consistency, Consistency::Strong);
    assert_eq!(class.currency, Currency::FirstVintage);
}
