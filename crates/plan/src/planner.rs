//! Design-space search: prune the menu, evaluate candidates, rank by cost.
//!
//! Every surviving menu entry is evaluated as one job through the shared
//! work-stealing executor, so large menus parallelize while the plan stays
//! byte-identical at any `MEMSENSE_THREADS` (the executor reassembles
//! results in submission order, and all ranking keys are content-derived).
//!
//! Sizing model: a class's instruction demand is
//! `mreq_per_s × 10⁶ × instructions_per_request`; a node running the class
//! at effective CPI `c` retires `threads × clock / c` instructions per
//! second. Dedicated mode sizes one node pool per class (throughput- or
//! capacity-driven, whichever needs more nodes); colocated mode packs every
//! class onto each node via the shared-memory fixed point
//! (`memsense_model::colocation`) and sizes the single pool by the most
//! demanding class.

use memsense_experiments::executor;
use memsense_model::colocation::{solve_colocated, Tenant};
use memsense_model::cpi;
use memsense_model::design::{pareto_indices, PARETO_EPS};
use memsense_model::queueing::QueueingCurve;
use memsense_model::solver::solve_cpi;
use memsense_model::system::SystemConfig;
use memsense_model::units::Nanoseconds;

use crate::spec::{HardwareOption, PlanSpec, TrafficClass};
use crate::PlanError;

/// Executor job label for candidate evaluation; the `plan/` prefix
/// attributes these jobs to the `plan` stage in repro run reports.
pub const EVAL_LABEL: &str = "plan/candidates";

/// A CPI breakdown for one class on one candidate (mirrors
/// `memsense_model::solver::CpiStack`, which colocated solves rebuild from
/// the shared queueing delay).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StackOut {
    /// Infinite-cache CPI.
    pub cpi_cache: f64,
    /// Stall CPI from the compulsory latency.
    pub compulsory_stall: f64,
    /// Stall CPI from queueing delay.
    pub queueing_stall: f64,
    /// CPI beyond the latency model when the bandwidth ceiling binds.
    pub bandwidth_residual: f64,
}

/// One traffic class evaluated on one candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassOutcome {
    /// Workload name.
    pub name: String,
    /// Workload segment token.
    pub segment: &'static str,
    /// Offered load (millions of requests per second).
    pub mreq_per_s: f64,
    /// Instruction demand, G instructions per second.
    pub demand_gips: f64,
    /// Hardware threads running this class per node.
    pub threads: u32,
    /// Nodes serving this class (dedicated: its pool; colocated: the
    /// shared pool).
    pub nodes: u64,
    /// What sized this class's node count: `"throughput"` or `"capacity"`.
    pub node_driver: &'static str,
    /// Effective CPI under the candidate (including interference when
    /// colocated).
    pub cpi_eff: f64,
    /// CPI breakdown.
    pub stack: StackOut,
    /// Loaded memory latency (compulsory + queueing), ns.
    pub loaded_latency_ns: f64,
    /// Channel utilization of the node type serving this class.
    pub utilization: f64,
    /// CPI penalty vs running alone (1.0 when dedicated).
    pub interference: f64,
    /// `(max_cpi − cpi) / max_cpi`, when a CPI ceiling is set.
    pub cpi_slack: Option<f64>,
    /// `(max_latency − loaded) / max_latency`, when a latency ceiling is set.
    pub latency_slack: Option<f64>,
    /// True when every per-class ceiling holds.
    pub sla_pass: bool,
}

/// One fully evaluated candidate configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateOutcome {
    /// The menu entry.
    pub hardware: HardwareOption,
    /// Total nodes to deploy (sum of pools when dedicated).
    pub nodes: u64,
    /// What sized the largest pool: `"throughput"` or `"capacity"`.
    pub node_driver: &'static str,
    /// `nodes × cost_per_node`.
    pub total_cost: f64,
    /// Total cost per satisfied million requests per second.
    pub cost_per_mreq_s: f64,
    /// Worst channel utilization across pools.
    pub utilization: f64,
    /// `(ceiling − utilization) / ceiling` where
    /// `ceiling = 1 − min_bandwidth_headroom`.
    pub bandwidth_slack: f64,
    /// True when every SLA holds (worst slack ≥ 0).
    pub feasible: bool,
    /// The minimum slack across all constraints.
    pub worst_slack: f64,
    /// Which constraint produced the worst slack, e.g. `"cpi:HPC class"`
    /// or `"bandwidth_headroom"`.
    pub binding_constraint: String,
    /// Per-class outcomes, in traffic order.
    pub classes: Vec<ClassOutcome>,
}

/// A menu entry removed before evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct PrunedOption {
    /// The pruned entry's name.
    pub name: String,
    /// The menu entry that dominates it.
    pub dominated_by: String,
}

/// The finished plan.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Whether classes share nodes.
    pub colocate: bool,
    /// Total offered load, millions of requests per second.
    pub total_mreq_per_s: f64,
    /// Candidates ranked best-first: feasible before infeasible, then by
    /// ascending total cost, descending worst slack, name.
    pub candidates: Vec<CandidateOutcome>,
    /// Menu entries pruned as dominated, in menu order.
    pub pruned: Vec<PrunedOption>,
    /// Indices into `candidates` on the (total cost ↓, worst slack ↑)
    /// Pareto frontier, by ascending cost.
    pub frontier: Vec<usize>,
    /// Name of the cheapest feasible candidate, if any is feasible.
    pub recommendation: Option<String>,
}

/// Plans the fleet: prune → evaluate (fanned through the executor) → rank.
///
/// # Errors
///
/// * [`PlanError::Spec`] for inconsistencies only visible at plan time
///   (e.g. colocated threads oversubscribing the node).
/// * [`PlanError::Model`] when a candidate evaluation fails to converge.
pub fn plan(spec: &PlanSpec) -> Result<Plan, PlanError> {
    let node = spec.node_config()?;
    let threads = assign_threads(spec, node.hardware_threads())?;
    let (kept, pruned) = prune_menu(&spec.hardware);
    let total_mreq_per_s: f64 = spec.traffic.iter().map(|t| t.mreq_per_s).sum();

    let mut candidates = executor::par_map(EVAL_LABEL, kept, |hw| {
        evaluate_candidate(spec, &node, &threads, hw, total_mreq_per_s)
    })?;

    // Rank best-first on content-only keys, so the order is identical for
    // any evaluation schedule and any spec permutation.
    candidates.sort_by(|a, b| {
        b.feasible
            .cmp(&a.feasible)
            .then(a.total_cost.total_cmp(&b.total_cost))
            .then(b.worst_slack.total_cmp(&a.worst_slack))
            .then(a.hardware.name.cmp(&b.hardware.name))
    });

    let points: Vec<(f64, f64)> = candidates
        .iter()
        .map(|c| (c.total_cost, c.worst_slack))
        .collect();
    let frontier = pareto_indices(&points);
    let recommendation = candidates
        .iter()
        .find(|c| c.feasible)
        .map(|c| c.hardware.name.clone());

    Ok(Plan {
        colocate: spec.colocate,
        total_mreq_per_s,
        candidates,
        pruned,
        frontier,
        recommendation,
    })
}

/// Colocated-mode thread assignment: explicit counts are honored, the
/// remaining threads are split evenly over unassigned classes (earlier
/// classes absorb the remainder). Dedicated mode gives every class the
/// whole node.
fn assign_threads(spec: &PlanSpec, hardware_threads: u32) -> Result<Vec<u32>, PlanError> {
    if !spec.colocate {
        return Ok(vec![hardware_threads; spec.traffic.len()]);
    }
    let explicit: u32 = spec.traffic.iter().filter_map(|t| t.threads).sum();
    if explicit > hardware_threads {
        return Err(PlanError::spec(
            "traffic[].threads",
            format!("explicit threads sum to {explicit}, node has {hardware_threads}"),
        ));
    }
    let unassigned = spec.traffic.iter().filter(|t| t.threads.is_none()).count() as u32;
    let remaining = hardware_threads - explicit;
    if unassigned > 0 && remaining < unassigned {
        return Err(PlanError::spec(
            "traffic",
            format!(
                "{unassigned} classes need threads but only {remaining} of \
                 {hardware_threads} node threads remain"
            ),
        ));
    }
    let share = remaining.checked_div(unassigned).unwrap_or(0);
    let mut leftover = remaining.checked_rem(unassigned).unwrap_or(0);
    let mut out = Vec::with_capacity(spec.traffic.len());
    for t in &spec.traffic {
        match t.threads {
            Some(explicit) => out.push(explicit),
            None => {
                let extra = u32::from(leftover > 0);
                leftover = leftover.saturating_sub(1);
                out.push(share + extra);
            }
        }
    }
    Ok(out)
}

/// Menu pruning: an entry strictly dominated on all four axes (cost ↓,
/// aggregate channel rate ↑, latency ↓, capacity ↑) by another entry can
/// never appear in the final ranking's prefix, so it is reported instead
/// of evaluated. Scans in menu order; the first dominator wins.
fn prune_menu(menu: &[HardwareOption]) -> (Vec<HardwareOption>, Vec<PrunedOption>) {
    let bw = |h: &HardwareOption| h.channels as f64 * h.mega_transfers;
    let dominates = |a: &HardwareOption, b: &HardwareOption| {
        a.cost <= b.cost + PARETO_EPS
            && bw(a) >= bw(b) - PARETO_EPS
            && a.unloaded_latency_ns <= b.unloaded_latency_ns + PARETO_EPS
            && a.capacity_gb >= b.capacity_gb - PARETO_EPS
            && (a.cost < b.cost - PARETO_EPS
                || bw(a) > bw(b) + PARETO_EPS
                || a.unloaded_latency_ns < b.unloaded_latency_ns - PARETO_EPS
                || a.capacity_gb > b.capacity_gb + PARETO_EPS)
    };
    let mut kept = Vec::new();
    let mut pruned = Vec::new();
    for h in menu {
        match menu.iter().find(|other| dominates(other, h)) {
            Some(dominator) => pruned.push(PrunedOption {
                name: h.name.clone(),
                dominated_by: dominator.name.clone(),
            }),
            None => kept.push(h.clone()),
        }
    }
    (kept, pruned)
}

/// Nodes needed to serve `demand` at `per_node` capacity; at least one.
fn nodes_for(demand: f64, per_node: f64) -> u64 {
    if per_node <= 0.0 {
        return u64::MAX;
    }
    let n = (demand / per_node).ceil();
    if n <= 1.0 {
        1
    } else if n >= u64::MAX as f64 {
        u64::MAX
    } else {
        n as u64
    }
}

/// Tracks the minimum slack and which constraint produced it. First-seen
/// wins ties, and constraints are visited in traffic order then aggregate,
/// so attribution is deterministic.
struct WorstSlack {
    slack: f64,
    label: String,
}

impl WorstSlack {
    fn new() -> WorstSlack {
        WorstSlack {
            slack: f64::INFINITY,
            label: String::new(),
        }
    }

    fn observe(&mut self, label: String, slack: f64) {
        if slack < self.slack {
            self.slack = slack;
            self.label = label;
        }
    }
}

fn evaluate_candidate(
    spec: &PlanSpec,
    node: &SystemConfig,
    threads: &[u32],
    hw: HardwareOption,
    total_mreq_per_s: f64,
) -> Result<CandidateOutcome, PlanError> {
    let sys = node
        .clone()
        .with_channels(hw.channels)?
        .with_channel_speed(hw.mega_transfers)?
        .with_unloaded_latency(Nanoseconds(hw.unloaded_latency_ns))?;
    let curve = QueueingCurve::composite_default();

    let mut worst = WorstSlack::new();
    let mut classes = Vec::with_capacity(spec.traffic.len());
    let (nodes, node_driver, utilization) = if spec.colocate {
        evaluate_colocated(spec, &sys, &curve, threads, &hw, &mut classes)?
    } else {
        evaluate_dedicated(spec, &sys, &curve, &hw, &mut classes)?
    };

    for c in &classes {
        if let Some(slack) = c.cpi_slack {
            worst.observe(format!("cpi:{}", c.name), slack);
        }
        if let Some(slack) = c.latency_slack {
            worst.observe(format!("latency:{}", c.name), slack);
        }
    }
    let ceiling = 1.0 - spec.min_bandwidth_headroom;
    let bandwidth_slack = (ceiling - utilization) / ceiling;
    worst.observe("bandwidth_headroom".to_string(), bandwidth_slack);

    let total_cost = nodes as f64 * hw.cost;
    Ok(CandidateOutcome {
        hardware: hw,
        nodes,
        node_driver,
        total_cost,
        cost_per_mreq_s: total_cost / total_mreq_per_s,
        utilization,
        bandwidth_slack,
        feasible: worst.slack >= 0.0,
        worst_slack: worst.slack,
        binding_constraint: worst.label,
        classes,
    })
}

/// Instruction demand of a class, G instructions per second.
fn demand_gips(t: &TrafficClass) -> f64 {
    t.mreq_per_s * 1e6 * t.instructions_per_request / 1e9
}

fn class_slacks(
    t: &TrafficClass,
    cpi_eff: f64,
    loaded_latency_ns: f64,
) -> (Option<f64>, Option<f64>) {
    let cpi_slack = t.sla.max_cpi.map(|max| (max - cpi_eff) / max);
    let latency_slack = t
        .sla
        .max_loaded_latency_ns
        .map(|max| (max - loaded_latency_ns) / max);
    (cpi_slack, latency_slack)
}

fn evaluate_dedicated(
    spec: &PlanSpec,
    sys: &SystemConfig,
    curve: &QueueingCurve,
    hw: &HardwareOption,
    classes: &mut Vec<ClassOutcome>,
) -> Result<(u64, &'static str, f64), PlanError> {
    let node_threads = sys.hardware_threads();
    let clock = sys.core_clock().value();
    let mut total_nodes: u64 = 0;
    let mut biggest_pool: u64 = 0;
    let mut driver: &'static str = "throughput";
    let mut max_util: f64 = 0.0;
    for t in &spec.traffic {
        let solved = solve_cpi(&t.workload, sys, curve)?;
        let stack = solved.cpi_stack(&t.workload, sys);
        let node_gips = node_threads as f64 * clock / solved.cpi_eff;
        let demand = demand_gips(t);
        let by_throughput = nodes_for(demand, node_gips);
        let by_capacity = if t.dataset_gb > 0.0 {
            nodes_for(t.dataset_gb, hw.capacity_gb)
        } else {
            0
        };
        let (nodes, class_driver) = if by_capacity > by_throughput {
            (by_capacity, "capacity")
        } else {
            (by_throughput, "throughput")
        };
        total_nodes = total_nodes.saturating_add(nodes);
        if nodes > biggest_pool {
            biggest_pool = nodes;
            driver = class_driver;
        }
        max_util = max_util.max(solved.utilization);
        let loaded_latency_ns = solved.miss_penalty.value();
        let (cpi_slack, latency_slack) = class_slacks(t, solved.cpi_eff, loaded_latency_ns);
        classes.push(ClassOutcome {
            name: t.workload.name.clone(),
            segment: t.workload.segment.token(),
            mreq_per_s: t.mreq_per_s,
            demand_gips: demand,
            threads: node_threads,
            nodes,
            node_driver: class_driver,
            cpi_eff: solved.cpi_eff,
            stack: StackOut {
                cpi_cache: stack.cpi_cache,
                compulsory_stall: stack.compulsory_stall,
                queueing_stall: stack.queueing_stall,
                bandwidth_residual: stack.bandwidth_residual,
            },
            loaded_latency_ns,
            utilization: solved.utilization,
            interference: 1.0,
            cpi_slack,
            latency_slack,
            sla_pass: cpi_slack.unwrap_or(0.0) >= 0.0 && latency_slack.unwrap_or(0.0) >= 0.0,
        });
    }
    Ok((total_nodes, driver, max_util))
}

fn evaluate_colocated(
    spec: &PlanSpec,
    sys: &SystemConfig,
    curve: &QueueingCurve,
    threads: &[u32],
    hw: &HardwareOption,
    classes: &mut Vec<ClassOutcome>,
) -> Result<(u64, &'static str, f64), PlanError> {
    let tenants: Vec<Tenant> = spec
        .traffic
        .iter()
        .zip(threads)
        .map(|(t, &threads)| Tenant {
            workload: t.workload.clone(),
            threads,
        })
        .collect();
    let solved = solve_colocated(&tenants, sys, curve)?;
    let clock = sys.core_clock();
    let q = solved.queueing_delay;
    let loaded_latency_ns = sys.unloaded_latency().value() + q.value();
    let unloaded_cycles = sys.unloaded_latency().to_cycles(clock);
    let queueing_cycles = q.to_cycles(clock);

    let mut by_throughput_max: u64 = 1;
    for ((t, tenant_solved), &class_threads) in
        spec.traffic.iter().zip(&solved.tenants).zip(threads)
    {
        let demand = demand_gips(t);
        let node_gips = class_threads as f64 * clock.value() / tenant_solved.cpi_eff;
        let nodes = nodes_for(demand, node_gips);
        by_throughput_max = by_throughput_max.max(nodes);
        // Rebuild the CPI stack at the shared loaded latency, mirroring
        // SolvedCpi::cpi_stack: anything the latency model cannot explain
        // is the bandwidth-wall residual (the fair-share scaling).
        let compulsory = cpi::memory_cpi_component(&t.workload, unloaded_cycles);
        let queueing = cpi::memory_cpi_component(&t.workload, queueing_cycles);
        let explained = t.workload.cpi_cache + compulsory + queueing;
        let (cpi_slack, latency_slack) = class_slacks(t, tenant_solved.cpi_eff, loaded_latency_ns);
        classes.push(ClassOutcome {
            name: t.workload.name.clone(),
            segment: t.workload.segment.token(),
            mreq_per_s: t.mreq_per_s,
            demand_gips: demand,
            threads: class_threads,
            nodes,
            node_driver: "throughput",
            cpi_eff: tenant_solved.cpi_eff,
            stack: StackOut {
                cpi_cache: t.workload.cpi_cache,
                compulsory_stall: compulsory,
                queueing_stall: queueing,
                bandwidth_residual: (tenant_solved.cpi_eff - explained).max(0.0),
            },
            loaded_latency_ns,
            utilization: solved.utilization,
            interference: tenant_solved.interference,
            cpi_slack,
            latency_slack,
            sla_pass: cpi_slack.unwrap_or(0.0) >= 0.0 && latency_slack.unwrap_or(0.0) >= 0.0,
        });
    }
    let total_dataset: f64 = spec.traffic.iter().map(|t| t.dataset_gb).sum();
    let by_capacity = if total_dataset > 0.0 {
        nodes_for(total_dataset, hw.capacity_gb)
    } else {
        0
    };
    let (nodes, driver) = if by_capacity > by_throughput_max {
        (by_capacity, "capacity")
    } else {
        (by_throughput_max, "throughput")
    };
    // Every class shares one pool, so each serves from `nodes` nodes.
    for c in classes.iter_mut() {
        c.nodes = nodes;
        c.node_driver = driver;
    }
    Ok((nodes, driver, solved.utilization))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::PlanSpec;

    #[test]
    fn example_plan_is_ranked_and_recommends() {
        let plan = plan(&PlanSpec::example()).unwrap();
        assert_eq!(plan.candidates.len(), 5, "one menu entry is pruned");
        assert_eq!(plan.pruned.len(), 1);
        assert_eq!(plan.pruned[0].name, "4ch-1333-overpriced");
        assert_eq!(plan.pruned[0].dominated_by, "4ch-1333-value");
        // Feasible candidates precede infeasible ones; each block is
        // cost-ascending.
        let first_infeasible = plan
            .candidates
            .iter()
            .position(|c| !c.feasible)
            .unwrap_or(plan.candidates.len());
        assert!(plan.candidates[..first_infeasible]
            .windows(2)
            .all(|w| w[0].total_cost <= w[1].total_cost));
        assert!(plan.candidates[first_infeasible..]
            .iter()
            .all(|c| !c.feasible));
        let recommendation = plan.recommendation.as_deref().expect("a feasible plan");
        assert_eq!(recommendation, plan.candidates[0].hardware.name);
        assert!(plan.candidates[0].feasible);
    }

    #[test]
    fn every_candidate_attributes_a_binding_constraint() {
        let plan = plan(&PlanSpec::example()).unwrap();
        for c in &plan.candidates {
            assert!(!c.binding_constraint.is_empty(), "{}", c.hardware.name);
            assert!(c.worst_slack.is_finite());
            assert_eq!(c.feasible, c.worst_slack >= 0.0);
            assert!(c.nodes >= 1);
            assert!(c.total_cost > 0.0);
            // The stack components must add back up to the effective CPI.
            for class in &c.classes {
                let total = class.stack.cpi_cache
                    + class.stack.compulsory_stall
                    + class.stack.queueing_stall
                    + class.stack.bandwidth_residual;
                assert!(
                    (total - class.cpi_eff).abs() < 1e-6,
                    "{}: stack {total} vs cpi {}",
                    class.name,
                    class.cpi_eff
                );
            }
        }
    }

    #[test]
    fn frontier_points_are_mutually_nondominated() {
        let plan = plan(&PlanSpec::example()).unwrap();
        assert!(!plan.frontier.is_empty());
        for &i in &plan.frontier {
            for &j in &plan.frontier {
                if i == j {
                    continue;
                }
                let (a, b) = (&plan.candidates[i], &plan.candidates[j]);
                assert!(
                    !(a.total_cost < b.total_cost - PARETO_EPS
                        && a.worst_slack > b.worst_slack + PARETO_EPS),
                    "{} dominates {}",
                    a.hardware.name,
                    b.hardware.name
                );
            }
        }
    }

    #[test]
    fn plan_is_invariant_under_menu_permutation() {
        let mut spec = PlanSpec::example();
        let baseline = plan(&spec).unwrap();
        spec.hardware.reverse();
        let permuted = plan(&spec).unwrap();
        assert_eq!(baseline.candidates, permuted.candidates);
        assert_eq!(baseline.frontier, permuted.frontier);
        assert_eq!(baseline.recommendation, permuted.recommendation);
        // Pruned entries keep menu order, so only the set matches.
        let names = |p: &Plan| {
            let mut v: Vec<String> = p.pruned.iter().map(|x| x.name.clone()).collect();
            v.sort();
            v
        };
        assert_eq!(names(&baseline), names(&permuted));
    }

    #[test]
    fn colocation_reports_interference_and_shares_one_pool() {
        let mut spec = PlanSpec::example();
        spec.colocate = true;
        let plan = plan(&spec).unwrap();
        for c in &plan.candidates {
            let nodes = c.classes.first().map(|x| x.nodes).unwrap_or(0);
            assert!(c.classes.iter().all(|x| x.nodes == nodes));
            assert_eq!(c.nodes, nodes);
            assert!(
                c.classes.iter().any(|x| x.interference > 1.0),
                "{}: someone pays for the neighbours",
                c.hardware.name
            );
        }
    }

    #[test]
    fn capacity_can_outvote_throughput() {
        let mut spec = PlanSpec::example();
        // Tiny per-node capacity: the analytics dataset forces the pool.
        for hw in &mut spec.hardware {
            hw.capacity_gb = 1.0;
        }
        let plan = plan(&spec).unwrap();
        for c in &plan.candidates {
            let analytics = c
                .classes
                .iter()
                .find(|x| x.segment == "big_data")
                .expect("analytics class present");
            assert_eq!(analytics.node_driver, "capacity");
            assert!(analytics.nodes >= 4096, "4096 GB / 1 GB per node");
        }
    }

    #[test]
    fn oversubscribed_colocated_threads_fail_with_spec_error() {
        let mut spec = PlanSpec::example();
        spec.colocate = true;
        for t in &mut spec.traffic {
            t.threads = Some(100);
        }
        let err = plan(&spec).unwrap_err();
        assert!(err.is_spec(), "{err:?}");
    }
}
