//! JSON round-trips for cluster-run configuration through `ksa-json` —
//! the first step toward a fully-composable, programmatically-generated
//! `RunConfig` for the surface-area autotuner: a [`ClusterConfig`] plus
//! a [`NodeFaultPlan`] and a [`FabricConfig`] fully describe a failover
//! trial, so sweeps can be generated, persisted and replayed from disk.

use ksa_desim::{Backoff, LinkDegrade, LinkPartition, NodeCrash, NodeFaultPlan, NsWindow};
use ksa_envsim::Machine;
use ksa_json::{Error, Value};
use ksa_tailbench::single_node::SingleNodeConfig;

use crate::{ClusterConfig, FabricConfig};

/// Serializes a [`ClusterConfig`] (including its nested node/machine
/// configuration) as a JSON object.
pub fn cluster_config_to_json(cfg: &ClusterConfig) -> Value {
    Value::object([
        ("nodes", Value::from(cfg.nodes as u64)),
        ("iterations", Value::from(cfg.iterations)),
        ("requests_per_iter", Value::from(cfg.requests_per_iter)),
        ("barrier_ns", Value::from(cfg.barrier_ns)),
        ("threads", Value::from(cfg.threads as u64)),
        (
            "node",
            Value::object([
                ("cores", Value::from(cfg.node.machine.cores as u64)),
                ("mem_mib", Value::from(cfg.node.machine.mem_mib)),
                ("groups", Value::from(cfg.node.groups as u64)),
                ("virt", Value::Bool(cfg.node.virt)),
                ("noise", Value::Bool(cfg.node.noise)),
                ("requests", Value::from(cfg.node.requests)),
                ("warmup", Value::from(cfg.node.warmup as u64)),
                ("util_pct", Value::from(cfg.node.util_pct)),
                ("trace", Value::Bool(cfg.node.trace)),
                ("metrics", Value::Bool(cfg.node.metrics)),
                ("seed", Value::from(cfg.node.seed)),
            ]),
        ),
    ])
}

/// Parses a [`ClusterConfig`] back from [`cluster_config_to_json`]'s
/// shape, naming the offending key on mismatch.
pub fn cluster_config_from_json(v: &Value) -> Result<ClusterConfig, Error> {
    let node = v.get("node")?;
    Ok(ClusterConfig {
        nodes: v.get("nodes")?.as_u64()? as usize,
        iterations: v.get("iterations")?.as_u64()?,
        requests_per_iter: v.get("requests_per_iter")?.as_u64()?,
        barrier_ns: v.get("barrier_ns")?.as_u64()?,
        threads: v.get("threads")?.as_u64()? as usize,
        node: SingleNodeConfig {
            requests: node.get("requests")?.as_u64()?,
            warmup: node.get("warmup")?.as_u64()? as usize,
            util_pct: node.get("util_pct")?.as_u64()?,
            trace: node.get("trace")?.as_bool()?,
            metrics: node.get("metrics")?.as_bool()?,
            ..SingleNodeConfig::new(
                Machine {
                    cores: node.get("cores")?.as_u64()? as usize,
                    mem_mib: node.get("mem_mib")?.as_u64()?,
                },
                node.get("groups")?.as_u64()? as usize,
                node.get("virt")?.as_bool()?,
                node.get("noise")?.as_bool()?,
                node.get("seed")?.as_u64()?,
            )
        },
    })
}

fn window_to_json(w: &NsWindow) -> Value {
    Value::object([("start", Value::from(w.start)), ("end", Value::from(w.end))])
}

fn window_from_json(v: &Value) -> Result<NsWindow, Error> {
    Ok(NsWindow {
        start: v.get("start")?.as_u64()?,
        end: v.get("end")?.as_u64()?,
    })
}

fn island_from_json(v: &Value) -> Result<Vec<usize>, Error> {
    v.get("island")?
        .as_array()?
        .iter()
        .map(|n| n.as_u64().map(|u| u as usize))
        .collect()
}

/// Serializes a [`NodeFaultPlan`] as a JSON object.
pub fn node_fault_plan_to_json(plan: &NodeFaultPlan) -> Value {
    Value::object([
        ("seed", Value::from(plan.seed)),
        ("drop_milli", Value::from(plan.drop_milli as u64)),
        (
            "crashes",
            Value::array(plan.crashes.iter().map(|c| {
                Value::object([
                    ("node", Value::from(c.node as u64)),
                    ("at", Value::from(c.at)),
                    ("down_for", Value::from(c.down_for)),
                ])
            })),
        ),
        (
            "partitions",
            Value::array(plan.partitions.iter().map(|p| {
                Value::object([
                    ("window", window_to_json(&p.window)),
                    (
                        "island",
                        Value::array(p.island.iter().map(|&n| Value::from(n as u64))),
                    ),
                ])
            })),
        ),
        (
            "degrades",
            Value::array(plan.degrades.iter().map(|d| {
                Value::object([
                    ("window", window_to_json(&d.window)),
                    (
                        "island",
                        Value::array(d.island.iter().map(|&n| Value::from(n as u64))),
                    ),
                    ("mult_milli", Value::from(d.mult_milli as u64)),
                ])
            })),
        ),
    ])
}

/// Parses a [`NodeFaultPlan`] back from
/// [`node_fault_plan_to_json`]'s shape.
pub fn node_fault_plan_from_json(v: &Value) -> Result<NodeFaultPlan, Error> {
    let crashes = v
        .get("crashes")?
        .as_array()?
        .iter()
        .map(|c| {
            Ok(NodeCrash {
                node: c.get("node")?.as_u64()? as usize,
                at: c.get("at")?.as_u64()?,
                down_for: c.get("down_for")?.as_u64()?,
            })
        })
        .collect::<Result<Vec<_>, Error>>()?;
    let partitions = v
        .get("partitions")?
        .as_array()?
        .iter()
        .map(|p| {
            Ok(LinkPartition {
                window: window_from_json(p.get("window")?)?,
                island: island_from_json(p)?,
            })
        })
        .collect::<Result<Vec<_>, Error>>()?;
    let degrades = v
        .get("degrades")?
        .as_array()?
        .iter()
        .map(|d| {
            Ok(LinkDegrade {
                window: window_from_json(d.get("window")?)?,
                island: island_from_json(d)?,
                mult_milli: d.get("mult_milli")?.as_u64()? as u32,
            })
        })
        .collect::<Result<Vec<_>, Error>>()?;
    Ok(NodeFaultPlan {
        seed: v.get("seed")?.as_u64()?,
        drop_milli: v.get("drop_milli")?.as_u64()? as u32,
        crashes,
        partitions,
        degrades,
    })
}

/// Serializes a [`FabricConfig`] as a JSON object.
pub fn fabric_config_to_json(fab: &FabricConfig) -> Value {
    Value::object([
        ("heartbeat_ns", Value::from(fab.heartbeat_ns)),
        ("suspect_misses", Value::from(fab.suspect_misses as u64)),
        ("dead_misses", Value::from(fab.dead_misses as u64)),
        ("link_ns", Value::from(fab.link_ns)),
        ("backoff_base_ns", Value::from(fab.backoff.base_ns)),
        ("backoff_cap_ns", Value::from(fab.backoff.cap_ns)),
        (
            "backoff_jitter_milli",
            Value::from(fab.backoff.jitter_milli as u64),
        ),
        ("max_attempts", Value::from(fab.max_attempts as u64)),
    ])
}

/// Parses a [`FabricConfig`] back from [`fabric_config_to_json`]'s shape.
pub fn fabric_config_from_json(v: &Value) -> Result<FabricConfig, Error> {
    Ok(FabricConfig {
        heartbeat_ns: v.get("heartbeat_ns")?.as_u64()?,
        suspect_misses: v.get("suspect_misses")?.as_u64()? as u32,
        dead_misses: v.get("dead_misses")?.as_u64()? as u32,
        link_ns: v.get("link_ns")?.as_u64()?,
        backoff: Backoff::new(
            v.get("backoff_base_ns")?.as_u64()?,
            v.get("backoff_cap_ns")?.as_u64()?,
            v.get("backoff_jitter_milli")?.as_u64()? as u32,
        ),
        max_attempts: v.get("max_attempts")?.as_u64()? as u32,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_config_roundtrips_through_json_text() {
        for cfg in [
            ClusterConfig::paper(true, false, 7),
            ClusterConfig::quick(false, true, 99),
        ] {
            let text = cluster_config_to_json(&cfg).render();
            let back = cluster_config_from_json(&ksa_json::parse(&text).unwrap()).unwrap();
            // ClusterConfig is not PartialEq (nested machine); compare
            // the canonical JSON forms instead.
            assert_eq!(text, cluster_config_to_json(&back).render());
            assert_eq!(back.nodes, cfg.nodes);
            assert_eq!(back.node.seed, cfg.node.seed);
            assert_eq!(back.node.virt, cfg.node.virt);
        }
    }

    #[test]
    fn node_fault_plan_roundtrips_exactly() {
        let plan = NodeFaultPlan::new(0xfeed_beef_dead_cafe)
            .crash(3, 1_000_000, 500_000)
            .crash(60, 2_000_000, 0)
            .partition(100, 90_000, vec![0, 1, 2])
            .degrade(5, 0, vec![7], 4000)
            .drop_prob_milli(125);
        let text = node_fault_plan_to_json(&plan).render();
        let back = node_fault_plan_from_json(&ksa_json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, plan, "NodeFaultPlan is PartialEq: exact roundtrip");

        let empty = NodeFaultPlan::none();
        let text = node_fault_plan_to_json(&empty).render();
        let back = node_fault_plan_from_json(&ksa_json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, empty);
        assert!(back.is_empty());
    }

    #[test]
    fn fabric_config_roundtrips_exactly() {
        for fab in [FabricConfig::default(), FabricConfig::quick()] {
            let text = fabric_config_to_json(&fab).render();
            let back = fabric_config_from_json(&ksa_json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, fab, "FabricConfig is PartialEq: exact roundtrip");
        }
    }

    #[test]
    fn shape_errors_name_the_missing_key() {
        let v = ksa_json::parse("{\"seed\": 1}").unwrap();
        let err = node_fault_plan_from_json(&v).unwrap_err();
        assert!(err.to_string().contains("crashes"), "{err}");
    }
}
