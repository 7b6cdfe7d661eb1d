//! `prcc` — command-line tool for exploring partially replicated causally
//! consistent shared memory.
//!
//! ```text
//! prcc inspect ring:6            # share graph, timestamp graphs, compression
//! prcc run ring:6 --tracker vc   # drive a workload, print the measured report
//! prcc explore ring:4 --chain 4  # model-check a causal chain over all interleavings
//! prcc help
//! ```

#![forbid(unsafe_code)]

use prcc::core::{BatchPolicy, Scenario, TrackerKind, WireMode};
use prcc::net::{DelayModel, FaultPlan, FaultSchedule, SessionConfig};
use prcc::sharegraph::{topology, LoopConfig, RegisterId, ReplicaId, ShareGraph, TimestampGraphs};
use prcc::sim::{run_scenario, ScenarioConfig, WorkloadConfig};
use prcc::timestamp::compress_replica;

const USAGE: &str = "usage: prcc <command> [args]\n\
         \n\
         commands:\n\
           inspect <topology>                    print share/timestamp graphs + compression\n\
           run <topology> [options]              run a workload and print the report\n\
           explore <topology> --chain <len>      model-check a causal chain\n\
           dot <topology> [--replica <i>]        emit Graphviz (share graph, or one timestamp graph)\n\
         \n\
         topologies:\n\
           ring:<n>  path:<n>  star:<leaves>  tree:<n>  grid:<w>x<h>\n\
           clique:<n>x<registers>  geo:<dcs>  fig3  fig5  fig8a  fig8b\n\
         \n\
         run options:\n\
           --tracker edge|vc|trunc:<l>   causality tracker (default edge)\n\
           --wire raw|compressed         metadata wire codec (default compressed)\n\
           --writes <n>                  writes per replica (default 20)\n\
           --zipf <theta>                register skew (default 0.9)\n\
           --seed <s>                    workload/network seed (default 0)\n\
           --drop <p>                    drop each message with probability p\n\
           --crash <r@t1:t2[,...]>       crash replica r at t1, restart at t2\n\
           --partition <a|b@t1:t2>       sever side a from side b during [t1,t2)\n\
                                         (sides are comma-separated replica lists)\n\
           --no-session                  disable the reliable-delivery session layer\n\
                                         (faults then cause permanent loss)\n\
           --batch <count>[:<bytes>]     sender-side update coalescing caps\n\
           --no-batch                    ship every update as a singleton frame\n\
           --clients <n>                 drive n client sessions through the serving\n\
                                         tier on a threaded cluster and report routing\n\
                                         + session-guarantee stats; composes with\n\
                                         --crash/--drop/--partition (the schedule runs\n\
                                         live under the serving workload: sessions\n\
                                         fail over, availability is reported)";

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|p| args.get(p + 1).cloned())
}

fn cmd_inspect(g: &ShareGraph) {
    println!(
        "share graph: {} replicas, {} registers, {} undirected edges, connected = {}",
        g.num_replicas(),
        g.placement().num_registers(),
        g.num_undirected_edges(),
        g.is_connected()
    );
    for i in g.replicas() {
        let regs: Vec<String> = g
            .placement()
            .registers_of(i)
            .iter()
            .map(|x| x.to_string())
            .collect();
        println!("  {i}: stores {{{}}}", regs.join(", "));
    }
    println!("\ntimestamp graphs (Definition 5):");
    let graphs = TimestampGraphs::build(g, LoopConfig::EXHAUSTIVE);
    for tg in graphs.iter() {
        let far: Vec<String> = tg
            .edges()
            .iter()
            .filter(|e| !e.touches(tg.replica()))
            .map(|e| e.to_string())
            .collect();
        let comp = compress_replica(g, tg);
        println!(
            "  {}: {} counters (compressed {}), far edges: {}",
            tg.replica(),
            tg.len(),
            comp.rank_compressed,
            if far.is_empty() {
                "-".to_owned()
            } else {
                far.join(" ")
            }
        );
    }
    println!(
        "\ntotal counters: {} (vector-clock baseline would use {} per replica)",
        graphs.total_counters(),
        g.num_replicas()
    );
}

fn cmd_run(g: &ShareGraph, args: &[String]) {
    let tracker = match flag(args, "--tracker").as_deref() {
        None | Some("edge") => TrackerKind::EdgeIndexed(LoopConfig::EXHAUSTIVE),
        Some("vc") => TrackerKind::VectorClock,
        Some(t) if t.starts_with("trunc:") => {
            let l: usize = t[6..].parse().unwrap_or_else(|_| usage());
            TrackerKind::EdgeIndexed(LoopConfig::bounded(l))
        }
        Some(_) => usage(),
    };
    let writes = flag(args, "--writes")
        .map(|s| s.parse().unwrap_or_else(|_| usage()))
        .unwrap_or(20);
    let zipf = flag(args, "--zipf")
        .map(|s| s.parse().unwrap_or_else(|_| usage()))
        .unwrap_or(0.9);
    let seed = flag(args, "--seed")
        .map(|s| s.parse().unwrap_or_else(|_| usage()))
        .unwrap_or(0);
    let wire_mode = flag(args, "--wire")
        .map_or(Ok(WireMode::default()), |s| s.parse())
        .unwrap_or_else(|e: String| {
            eprintln!("{e}");
            std::process::exit(2);
        });
    let (faults, have_faults) = parse_faults(args);
    let session = if have_faults && !args.iter().any(|a| a == "--no-session") {
        Some(SessionConfig::default())
    } else {
        None
    };
    let batch = if args.iter().any(|a| a == "--no-batch") {
        BatchPolicy::unbatched()
    } else if let Some(spec) = flag(args, "--batch") {
        parse_batch(&spec).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        })
    } else {
        BatchPolicy::default()
    };
    let clients = flag(args, "--clients")
        .map(|s| s.parse().unwrap_or_else(|_| usage()))
        .unwrap_or(0);
    let report = run_scenario(
        g,
        &ScenarioConfig {
            tracker,
            workload: WorkloadConfig {
                writes_per_replica: writes,
                zipf_theta: zipf,
                seed,
            },
            delay: DelayModel::default(),
            net_seed: seed,
            steps_between_ops: 2,
            dummies: vec![],
            staleness_probes: 4,
            wire_mode,
            faults,
            session,
            batch,
            clients,
        },
    );
    println!("{report}");
    println!(
        "details: {} safety / {} liveness violations, mean pending wait {:.2}, \
         payload {} B, storage {} cells",
        report.safety_violations,
        report.liveness_violations,
        report.mean_pending_wait,
        report.payload_bytes,
        report.storage_cells
    );
    if clients > 0 {
        println!(
            "clients: {} sessions, {} ops ({} local / {} forwarded), \
             {} ryw + {} mr blocks",
            clients,
            report.client_ops,
            report.ops_routed_local,
            report.ops_forwarded,
            report.ryw_blocks,
            report.mr_blocks
        );
        println!(
            "serving resilience: availability {:.4}, {} failovers, \
             {} shed, {} timed out",
            report.client_availability, report.failovers, report.ops_shed, report.op_timeouts
        );
    }
    if have_faults {
        println!(
            "faults: {} retransmits, {} dups suppressed, {} acks, \
             catch-up p50/max {}/{} ticks, {} lost to crash, {} stuck",
            report.retransmits,
            report.dup_suppressed,
            report.acks_sent,
            report.catch_up_p50,
            report.catch_up_max,
            report.lost_to_crash,
            report.stuck_pending
        );
    }
    if !report.consistent {
        std::process::exit(1);
    }
}

/// Parses `--batch <count>[:<bytes>]` into a [`BatchPolicy`] (omitted
/// bytes keep the default cap).
fn parse_batch(spec: &str) -> Result<BatchPolicy, String> {
    let num = |s: &str| -> Result<usize, String> {
        s.parse()
            .map_err(|_| format!("bad numeric argument '{s}' in --batch '{spec}'"))
    };
    let mut policy = BatchPolicy::default();
    match spec.split(':').collect::<Vec<_>>()[..] {
        [c] => policy.batch_count = num(c)?,
        [c, b] => (policy.batch_count, policy.batch_bytes) = (num(c)?, num(b)?),
        _ => return Err(format!("--batch '{spec}': expected <count>[:<bytes>]")),
    }
    Ok(policy)
}

/// Parses `--drop`, `--crash`, and `--partition` into a fault schedule.
/// Returns the schedule and whether any fault flag was present.
fn parse_faults(args: &[String]) -> (FaultSchedule, bool) {
    fn replica(s: &str) -> ReplicaId {
        ReplicaId::new(s.parse().unwrap_or_else(|_| {
            eprintln!("bad replica id '{s}'");
            std::process::exit(2);
        }))
    }
    fn tick(s: &str) -> u64 {
        s.parse().unwrap_or_else(|_| {
            eprintln!("bad tick '{s}'");
            std::process::exit(2);
        })
    }
    // Splits "<head>@t1:t2".
    fn window(s: &str) -> (&str, u64, u64) {
        let Some((head, span)) = s.split_once('@') else {
            eprintln!("expected '<...>@t1:t2' in '{s}'");
            std::process::exit(2);
        };
        let Some((t1, t2)) = span.split_once(':') else {
            eprintln!("expected '@t1:t2' in '{s}'");
            std::process::exit(2);
        };
        (head, tick(t1), tick(t2))
    }

    let mut have = false;
    let mut schedule = FaultSchedule::default();
    if let Some(p) = flag(args, "--drop") {
        have = true;
        let p: f64 = p.parse().unwrap_or_else(|_| usage());
        schedule = FaultSchedule::from_plan(FaultPlan::dropping(p));
    }
    if let Some(spec) = flag(args, "--crash") {
        have = true;
        for ev in spec.split(',') {
            let (r, at, restart) = window(ev);
            schedule = schedule.crash(replica(r), at, restart);
        }
    }
    if let Some(spec) = flag(args, "--partition") {
        have = true;
        let (sides, from, until) = window(&spec);
        let Some((a, b)) = sides.split_once('|') else {
            eprintln!("expected 'a,..|b,..@t1:t2' in '{spec}'");
            std::process::exit(2);
        };
        let side = |s: &str| -> Vec<ReplicaId> { s.split(',').map(replica).collect() };
        schedule = schedule.partition(side(a), side(b), from, until);
    }
    (schedule, have)
}

fn cmd_explore(g: &ShareGraph, args: &[String]) {
    let chain: usize = flag(args, "--chain")
        .map(|s| s.parse().unwrap_or_else(|_| usage()))
        .unwrap_or(3);
    // Build a causal chain along a walk through the share graph: each
    // replica writes a register shared with the next hop, firing only
    // after the previous link has been applied locally.
    let mut walk = vec![ReplicaId::new(0)];
    let mut seen = vec![false; g.num_replicas()];
    seen[0] = true;
    while walk.len() < chain + 1 {
        let cur = *walk.last().expect("non-empty walk");
        let Some(&next) = g.neighbors(cur).iter().find(|n| !seen[n.index()]) else {
            break;
        };
        seen[next.index()] = true;
        walk.push(next);
    }
    let mut scenario = Scenario::new(g.clone());
    let mut prev: Option<usize> = None;
    for w in walk.windows(2) {
        let reg = g
            .placement()
            .shared(w[0], w[1])
            .first()
            .expect("adjacent replicas share a register");
        let idx = match prev {
            None => scenario.write(w[0], reg),
            Some(p) => scenario.write_after(w[0], reg, [p]),
        };
        prev = Some(idx);
    }
    let res = scenario.explore();
    println!("explored: {res}");
    if !res.verified() {
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((c, r)) => (c.as_str(), r),
        None => usage(),
    };
    if cmd == "help" || cmd == "--help" {
        usage();
    }
    let topo = rest.first().map(String::as_str).unwrap_or_else(|| usage());
    let g = topology::parse(topo).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    match cmd {
        "inspect" => cmd_inspect(&g),
        "run" => cmd_run(&g, rest),
        "explore" => cmd_explore(&g, rest),
        "dot" => {
            use prcc::sharegraph::dot;
            match flag(rest, "--replica") {
                Some(i) => {
                    let i: u32 = i.parse().unwrap_or_else(|_| usage());
                    let tg = prcc::sharegraph::TimestampGraph::build(
                        &g,
                        ReplicaId::new(i),
                        LoopConfig::EXHAUSTIVE,
                    );
                    print!("{}", dot::timestamp_graph_to_dot(&g, &tg));
                }
                None => print!("{}", dot::share_graph_to_dot(&g)),
            }
        }
        _ => usage(),
    }
    // Quiet the unused-import lints for ids used only in some branches.
    let _ = (ReplicaId::new(0), RegisterId::new(0));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_spec_is_count_then_optional_bytes() {
        let d = BatchPolicy::default();
        assert_eq!(
            parse_batch("4"),
            Ok(BatchPolicy {
                batch_count: 4,
                ..d
            })
        );
        assert_eq!(
            parse_batch("4:512"),
            Ok(BatchPolicy {
                batch_count: 4,
                batch_bytes: 512
            })
        );
        let err = parse_batch("4:512:1").unwrap_err();
        assert!(err.contains("<count>[:<bytes>]"), "{err}");
        assert!(parse_batch("four").unwrap_err().contains("bad numeric"));
    }

    #[test]
    fn every_topology_in_the_usage_text_parses() {
        let section = USAGE
            .split_once("topologies:")
            .and_then(|(_, rest)| rest.split_once("run options:"))
            .expect("usage text lists topologies")
            .0;
        let specs: Vec<&str> = section.split_whitespace().collect();
        assert_eq!(specs.len(), 11, "{specs:?}");
        for spec in specs {
            // Every `<field>` placeholder becomes 3.
            let concrete: String = spec
                .split('<')
                .enumerate()
                .map(|(i, part)| match (i, part.split_once('>')) {
                    (0, _) | (_, None) => part.to_owned(),
                    (_, Some((_, tail))) => format!("3{tail}"),
                })
                .collect();
            if let Err(e) = topology::parse(&concrete) {
                panic!("usage lists '{spec}' but '{concrete}' does not parse: {e}");
            }
        }
        assert!(topology::parse("ring:one")
            .unwrap_err()
            .contains("bad numeric"));
        assert!(topology::parse("grid:3").unwrap_err().contains("<w>x<h>"));
        assert!(topology::parse("moebius:3")
            .unwrap_err()
            .contains("unknown topology"));
    }
}
