//! The paper's tourist scenario: "look at the on-line menus of all
//! Chinese restaurants before choosing where to eat for dinner."
//!
//! Menus live on restaurant servers all over the city; the tourist runs a
//! *query-opened dynamic set*: every reachable neighbourhood evaluates the
//! query locally, and the union of their answers is the membership a
//! Figure 4 run lists, four fetches in flight. A partition takes a
//! neighbourhood offline mid-browse — the tourist still gets every
//! reachable menu ("we would not go hungry if our restaurant search
//! missed some (but not all) Chinese restaurants"), and a second run over
//! the rest fetches them after repair.
//!
//! Run with: `cargo run --example restaurant_guide`

use weak_sets::prelude::*;

const NEIGHBOURHOODS: [&str; 4] = ["shadyside", "squirrel-hill", "oakland", "downtown"];

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut topo = Topology::new();
    let tourist = topo.add_node("tourist-phone", 0);
    let hoods: Vec<NodeId> = NEIGHBOURHOODS
        .iter()
        .enumerate()
        .map(|(i, name)| topo.add_node(*name, i as u32 + 1))
        .collect();
    let mut world = StoreWorld::new(
        7,
        topo,
        LatencyModel::SiteDistance {
            base: SimDuration::from_millis(2),
            per_hop: SimDuration::from_millis(6),
        },
    );
    for &h in &hoods {
        world.install_service(h, Box::new(StoreServer::new()));
    }

    // Restaurants publish menus on their neighbourhood server.
    let client = StoreClient::new(tourist, SimDuration::from_millis(150));
    let mut id = 0u64;
    for (hi, &hood) in hoods.iter().enumerate() {
        for k in 0..3 {
            id += 1;
            let cuisine = if (hi + k) % 2 == 0 {
                "chinese"
            } else {
                "pierogi"
            };
            client.put_object(
                &mut world,
                hood,
                ObjectRecord::new(
                    ObjectId(id),
                    format!("{}-restaurant-{k}.menu", NEIGHBOURHOODS[hi]),
                    format!("menu of restaurant {id}"),
                )
                .with_attr("cuisine", cuisine)
                .with_attr("city", "pittsburgh"),
            )?;
        }
    }

    // Query: all Chinese menus in Pittsburgh. Each neighbourhood answers
    // for the menus it holds; one that cannot be reached is skipped, and
    // its menus are simply absent (partial results are the point).
    let query = Query::And(vec![
        Query::attr("cuisine", "chinese"),
        Query::attr("city", "pittsburgh"),
    ]);
    let mut matched = Vec::new();
    let mut answered = 0;
    for &hood in &hoods {
        if let Ok(ids) = client.query_node(&mut world, hood, &query) {
            answered += 1;
            matched.extend(ids.into_iter().map(|elem| MemberEntry { elem, home: hood }));
        }
    }
    let matched = Membership::from(matched);
    println!(
        "query matched {} chinese menus across {answered} neighbourhoods\n",
        matched.len()
    );
    // Closest neighbourhoods first, four fetches in flight.
    let config = IterConfig {
        window: 4,
        fetch_order: FetchOrder::ClosestFirst,
        ..IterConfig::default()
    };
    let mut menus = Elements::pinned(client.clone(), matched.clone(), None, config.clone());

    // Downtown drops off the network while we browse.
    world.topology_mut().partition(&[hoods[3]]);
    println!("(downtown just lost connectivity)\n");

    let (arrived, end) = menus.drain(&mut world, 1, SimDuration::ZERO);
    for menu in &arrived {
        println!("  menu arrived: {}", menu.name);
    }
    println!("\nfirst pass: {} menus, status {end:?}", arrived.len());
    let pending: Vec<MemberEntry> = matched
        .iter()
        .filter(|m| !menus.yielded().contains(&m.elem))
        .copied()
        .collect();
    println!("unreachable menus pending: {}", pending.len());

    // Dinner can wait a minute — the neighbourhood comes back.
    world.topology_mut().heal_partition();
    world.sleep(SimDuration::from_millis(50));
    let mut menus = Elements::pinned(client, pending.into(), None, config);
    let (late, end) = menus.drain(&mut world, 1, SimDuration::ZERO);
    for menu in &late {
        println!("  late menu arrived: {}", menu.name);
    }
    assert_eq!(end, IterStep::Done);
    println!(
        "\nall {} menus in hand after repair — dinner is saved",
        arrived.len() + late.len()
    );
    Ok(())
}
