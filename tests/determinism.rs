//! Determinism regression: the whole stack — simulator, store, gossip,
//! iterators, fault injection, the fuzz driver itself — must be a pure
//! function of the scenario seed. Replayable repro artifacts and sound
//! shrinking both stand on this.

use weakset_dst::prelude::*;

/// Same seed, two full executions, byte-identical traces.
#[test]
fn same_seed_same_trace_hash() {
    for i in 0..8 {
        let scenario = generate(mix(42, i));
        let a = execute(&scenario);
        let b = execute(&scenario);
        assert_eq!(
            a.trace_hash, b.trace_hash,
            "seed {}: trace diverged between executions",
            scenario.seed
        );
        assert_eq!(a.yielded, b.yielded, "seed {}", scenario.seed);
        assert_eq!(a.steps, b.steps, "seed {}", scenario.seed);
        assert_eq!(a.violations, b.violations, "seed {}", scenario.seed);
    }
}

/// Different seeds explore different schedules: across a batch of
/// scenarios the trace hashes are not all equal.
#[test]
fn different_seeds_diverge() {
    let hashes: Vec<u64> = (0..8)
        .map(|i| execute(&generate(mix(7, i))).trace_hash)
        .collect();
    assert!(
        hashes.iter().any(|&h| h != hashes[0]),
        "8 distinct seeds produced identical traces: {hashes:?}"
    );
}

/// The generator itself is pure: scenario construction never consults
/// ambient state.
#[test]
fn generation_is_pure() {
    for i in 0..50 {
        let seed = mix(1, i);
        assert_eq!(generate(seed), generate(seed));
    }
}

/// Pairs each row of [`LEGS`] with its pinned value, checking that the
/// pins name the legs in table order.
fn legs<T>(pins: [(&'static str, T); LEGS.len()]) -> impl Iterator<Item = (&'static Leg, T)> {
    LEGS.iter().zip(pins).map(|(leg, (name, pinned))| {
        assert_eq!(leg.0, name, "pins out of LEGS order");
        (leg, pinned)
    })
}

/// The fuzz gate's own loop, pinned across commits: one [`campaign`] per
/// leg at seed 1, its combined trace hash and how many scenarios failed.
/// This pins what the fuzzer finds, failures included, so a failure a
/// leg finds moves its pin.
/// Constants measured at
/// c4eb3ce with `weakset-dst --iters 620 --seed 1` and each leg's flag of that time,
/// the window leg's when it was added. Last moved when anti-entropy
/// rounds stopped waiting on their exchanges (every leg with a gossip
/// deployment: a round's requests are woken by their replies, so rounds
/// no longer hold the driver's waits; the merkle leg's one class-C
/// failure went with them).
#[test]
fn campaign_is_pinned() {
    let pins = [
        ("plain", (0xd0df_557b_0813_6996, 0)),
        ("sharded", (0x2493_c921_1f49_67d2, 0)),
        ("causal", (0x9635_6159_79d9_d423, 0)),
        ("merkle", (0xac0d_1150_dfdc_12de, 0)),
        ("window", (0x767a_93c3_73fe_518c, 0)),
    ];
    for (&(name, generate), pinned) in legs(pins) {
        let (combined, failures) = campaign(&(name, generate), 1, 620);
        let got = (combined, failures.len());
        assert_eq!(
            got, pinned,
            "{name}: campaign is now ({:#018x}, {})",
            got.0, got.1
        );
    }
}

/// The generators pinned *across commits*, as scenarios rather than as
/// the traces they produce: one FNV fold per generator over the artifact
/// text of 1,000 scenarios. Equal trace hashes cannot tell a moved draw
/// that two schedules happen to absorb; equal text can. Constants
/// measured at f5f802f, before the generators' shared parts were folded;
/// the window leg's when it was added.
#[test]
fn generated_scenarios_are_pinned() {
    let pins = [
        ("plain", 0x1aaf_65ea_e824_3fd8),
        ("sharded", 0xf42f_f4a5_6b11_f6ba),
        ("causal", 0x15e8_c191_e63c_2cb8),
        ("merkle", 0x2d93_7ae1_c976_43e6),
        ("window", 0x5806_e0cd_8653_db98),
    ];
    for (&(name, generate), pinned) in legs(pins) {
        let folded = (0..1000).fold(0xcbf2_9ce4_8422_2325u64, |acc, i| {
            generate(mix(2026, i)).to_ron().bytes().fold(acc, |h, b| {
                (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
            })
        });
        assert_eq!(
            folded, pinned,
            "{name}: scenario fold is now {folded:#018x}"
        );
    }
}

/// Trace hashes pinned *across commits*: the suite above only compares
/// two executions of one build, but a refactor that claims "nothing
/// moved" is judged by the simulator producing the same traces as its
/// parent. One FNV-style fold per generator over 64 scenarios; a change
/// that moves a constant must say why the traces were meant to move.
/// Last moved when anti-entropy rounds stopped waiting on their
/// exchanges (every leg with a gossip deployment; sharded holds).
#[test]
fn corpus_trace_hash_is_pinned() {
    let pins = [
        ("plain", 0xf3c6_5167_b20b_72d6),
        ("sharded", 0xfd42_4139_d483_1406),
        ("causal", 0xf661_e71a_8002_ce02),
        ("merkle", 0x8e2d_a08c_637a_e58c),
        ("window", 0x47b5_4596_f9f0_a582),
    ];
    for (&(name, generate), pinned) in legs(pins) {
        let folded = (0..64).fold(0xcbf2_9ce4_8422_2325, |acc, i| {
            (acc ^ execute(&generate(mix(2026, i))).trace_hash).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!(folded, pinned, "{name}: corpus hash is now {folded:#018x}");
    }
}

/// What each run *recorded*, pinned across commits beside its trace hash:
/// the causal event stream (every kind, detail, span edge, parent and
/// trace id, in order) and the metrics registry as it prints. Constants
/// measured at 2afe24d, before the simulator's bookkeeping was made
/// cheaper, and moved with the trace hashes above (last when anti-entropy
/// rounds stopped waiting on their exchanges); a change that moves one
/// recorded a different byte. The metrics folds of the legs with gossip
/// deployments last moved alone, when a reply began cancelling the
/// deadline of the task it wakes: `sim.dispatch.deadline` counts only
/// deadlines that fire, and `sim.dispatch.total` and
/// `sim.queue.depth.max` lost the cancelled ones.
#[test]
fn events_and_metrics_are_pinned() {
    fn fnv(acc: u64, text: &str) -> u64 {
        text.bytes().fold(acc, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }
    let pins = [
        ("plain", (0xf476_e901_b838_d769, 0x72ac_803a_a6ad_f109)),
        ("sharded", (0xa291_d3bb_a2b0_2dfb, 0xded6_49b9_82b3_e90e)),
        ("causal", (0x801e_171a_dc06_afd2, 0xd224_9942_d0f9_cbdf)),
        ("merkle", (0x1910_4693_7e58_24b1, 0x0b01_600e_05af_e686)),
        ("window", (0x41b7_180c_5d33_900d, 0xf948_d80d_aac6_10a0)),
    ];
    for (&(name, generate), pinned) in legs(pins) {
        let (mut e, mut m) = (0xcbf2_9ce4_8422_2325, 0xcbf2_9ce4_8422_2325);
        for i in 0..64 {
            let report = execute(&generate(mix(2026, i)));
            e = fnv(e, &format!("{:?}", report.events));
            m = fnv(m, &report.metrics.to_string());
        }
        assert_eq!(
            (e, m),
            pinned,
            "{name}: events fold is now {e:#018x}, metrics fold {m:#018x}"
        );
    }
}

/// The payload hashes a threaded recording stores, pinned across commits:
/// `record::hash_debug` of one message per `StoreMsg` variant, folded
/// into one constant. Kept recordings are regression seeds only while
/// these hashes hold. Constant moved when `SyncMembers` began carrying a
/// step and `Members` whether it committed; recordings made before that
/// carry the old schema version and are refused.
#[test]
fn recording_payload_hashes_are_pinned() {
    use std::collections::HashSet;
    use std::mem::discriminant;
    use weak_sets::weakset_runtime::record::hash_debug;
    use weak_sets::weakset_sim::node::NodeId;
    use weak_sets::weakset_store::prelude::*;

    let (c, o) = (CollectionId(7), ObjectId(42));
    let entry = MemberEntry {
        elem: o,
        home: NodeId(2),
    };
    let dot = Dot {
        replica: NodeId(1),
        counter: 3,
    };
    let dotted = DottedEntry { dot, entry };
    let mut vv = VersionVector::new();
    vv.observe(dot);
    vv.advance(NodeId(0));
    let key = RangeKey {
        prefix: 1 << 63,
        depth: 1,
    };
    let summary = RangeSummary {
        key,
        count: 2,
        hash: 0xfeed,
    };
    let record = ObjectRecord::new(o, "wing.face", &b"pixels"[..]).with_attr("site", "cmu");
    let members = Membership::from(vec![
        entry,
        MemberEntry {
            elem: ObjectId(9),
            home: NodeId(0),
        },
    ]);
    let mut session = SessionToken::new();
    session.observe_version(c, 4);
    session.observe_clock(c, &vv);
    let delta = MembershipDelta {
        vv: vv.clone(),
        novel: vec![dotted],
        live: vec![dot],
    };
    let all = vec![
        StoreMsg::GetObject(o),
        StoreMsg::PutObject(record.clone()),
        StoreMsg::DeleteObject(o),
        StoreMsg::QueryLocal(Query::And(vec![
            Query::attr("site", "cmu"),
            Query::Not(Box::new(Query::NameSuffix(".face".into()))),
        ])),
        StoreMsg::CreateCollection(c),
        StoreMsg::ListMembers(c),
        StoreMsg::AddMember { coll: c, entry },
        StoreMsg::RemoveMember { coll: c, elem: o },
        StoreMsg::SyncMembers {
            coll: c,
            version: 5,
            step: SyncStep::Add(entry),
        },
        StoreMsg::SyncMembers {
            coll: c,
            version: 5,
            step: SyncStep::Remove(o),
        },
        StoreMsg::SyncMembers {
            coll: c,
            version: 5,
            step: SyncStep::Full(members.clone()),
        },
        StoreMsg::AcquireReadLock { coll: c, token: 11 },
        StoreMsg::ReleaseReadLock { coll: c, token: 11 },
        StoreMsg::AcquireGrowGuard { coll: c, token: 12 },
        StoreMsg::ReleaseGrowGuard { coll: c, token: 12 },
        StoreMsg::GossipDeltaReq {
            coll: c,
            digest: vv.clone(),
        },
        StoreMsg::GossipPush {
            coll: c,
            delta: delta.clone(),
        },
        StoreMsg::GossipRangeReq {
            coll: c,
            ranges: vec![summary],
        },
        StoreMsg::GossipDeltaBatch {
            coll: c,
            batch: DeltaBatch {
                vv: vv.clone(),
                novel: vec![dotted],
                drop: vec![dot],
            },
        },
        StoreMsg::WithSession {
            session,
            inner: Box::new(StoreMsg::ListMembers(c)),
        },
        StoreMsg::Batch(vec![StoreMsg::GetObject(o), StoreMsg::ListMembers(c)]),
        StoreMsg::BatchReply(vec![StoreMsg::Ack, StoreMsg::NotFound(o)]),
        StoreMsg::Object(record),
        StoreMsg::NotFound(o),
        StoreMsg::Ack,
        StoreMsg::Members {
            version: 5,
            entries: members.clone(),
            committed: true,
        },
        StoreMsg::Matches(vec![o, ObjectId(9)]),
        StoreMsg::Locked,
        StoreMsg::NoSuchCollection(c),
        StoreMsg::BadRequest,
        StoreMsg::GossipDigest {
            coll: c,
            digest: vv.clone(),
        },
        StoreMsg::GossipDelta { coll: c, delta },
        StoreMsg::GossipRangeResp {
            coll: c,
            digest: vv.clone(),
            ranges: vec![
                RangeReply::Match(key),
                RangeReply::Split(vec![summary]),
                RangeReply::Leaf {
                    key,
                    entries: vec![dotted],
                },
            ],
        },
        StoreMsg::SessionBehind {
            coll: c,
            have: 3,
            need: 5,
        },
        StoreMsg::SessionStamped {
            clock: vv,
            inner: Box::new(StoreMsg::Members {
                version: 5,
                entries: members,
                committed: false,
            }),
        },
    ];
    let variants: HashSet<_> = all.iter().map(discriminant).collect();
    assert_eq!(
        (variants.len(), all.len()),
        (33, 35),
        "one message per variant, and a sync per step"
    );
    let folded = all.iter().fold(0xcbf2_9ce4_8422_2325u64, |acc, m| {
        (acc ^ hash_debug(m)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    assert_eq!(
        folded, 0xf3ee_af96_ee6e_9f9f,
        "payload hash fold is now {folded:#018x}"
    );
}
