//! `repro` — regenerate the paper's tables and figures from the command
//! line.
//!
//! ```text
//! repro all                 # everything (slow; use a release build)
//! repro fig1 ... fig11      # individual figures
//! repro tab2 ... tab7       # individual tables
//! repro hierarchy           # Sec. VII tiered-memory demo
//! repro ablation            # DESIGN.md ablation studies
//! repro --report all        # append run telemetry (table + JSON)
//! ```
//!
//! Each experiment prints an ASCII table and writes a CSV under
//! `target/repro/`.
//!
//! Stages run concurrently on the experiment executor (thread count from
//! `MEMSENSE_THREADS`; unset or `0` means all cores). Output is buffered
//! per stage and printed in deterministic target order, so stdout is
//! byte-identical to a serial run. `--report` additionally prints per-stage
//! wall-clock/job/solver telemetry and writes `run_report.json`.

use std::collections::BTreeSet;
use std::convert::Infallible;
use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::sync::OnceLock;
use std::time::Instant;

use memsense_experiments::calibrate::{calibrate_all, CalibratedWorkload, CalibrationBudget};
use memsense_experiments::executor::{self, RunReport};
use memsense_experiments::figures;
use memsense_experiments::render::{default_output_dir, Table};
use memsense_experiments::tables;
use memsense_experiments::timeseries::{class_series, summary_table, SeriesBudget};
use memsense_experiments::validate;
use memsense_experiments::{ablation, classify};
use memsense_model::queueing::QueueingCurve;
use memsense_model::solver::telemetry;
use memsense_model::system::SystemConfig;
use memsense_model::units::{GigaHertz, Nanoseconds};
use memsense_workloads::{Class, Workload};

/// Stage errors cross executor threads, so they must be `Send + Sync`.
type StageError = Box<dyn std::error::Error + Send + Sync>;

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let want_report = args.iter().any(|a| a == "--report");
    args.retain(|a| a != "--report");
    if args.is_empty() || args.iter().any(|a| a == "-h" || a == "--help") {
        eprintln!(
            "usage: repro [--report] <target>...\n  targets: all fig1 fig2 fig3 fig4 fig5 fig6 fig7 fig8 \
             fig9 fig10 fig11 tab2 tab3 tab4 tab5 tab6 tab7 hierarchy ablation futuretech numa tornado cpistack report channels scorecard design fidelity colocation io plan\n  \
             --report: print per-stage run telemetry and write run_report.json\n  \
             MEMSENSE_THREADS=<n>: executor threads (1 = serial, 0/unset = all cores)"
        );
        return ExitCode::from(2);
    }
    let mut targets: BTreeSet<String> = args.iter().map(|s| s.to_lowercase()).collect();
    if targets.remove("all") {
        for t in [
            "fig1",
            "fig2",
            "fig3",
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "fig11",
            "tab2",
            "tab3",
            "tab4",
            "tab5",
            "tab6",
            "tab7",
            "hierarchy",
            "ablation",
            "futuretech",
            "numa",
            "tornado",
            "cpistack",
            "report",
            "channels",
            "scorecard",
            "design",
            "fidelity",
            "colocation",
            "io",
            "plan",
        ] {
            targets.insert(t.to_string());
        }
    }
    let order: Vec<String> = targets.into_iter().collect();

    let out = default_output_dir();
    let started = Instant::now();
    let solver_before = telemetry::snapshot();

    // Every stage is one executor job writing into its own stdout buffer;
    // buffers are printed in target order below, so output matches a
    // serial run byte for byte. Each stage records the jobs it dispatches.
    let Ok(stages) = executor::par_map("stage", order.clone(), |target| {
        let stage_started = Instant::now();
        let (outcome, jobs) = executor::record_jobs(|| {
            let mut buf = String::new();
            run_target(&target, &out, &mut buf)
                .map(|()| buf)
                .map_err(|e| e.to_string())
        });
        let ok = outcome.is_ok();
        Ok::<_, Infallible>((outcome, (target, stage_started.elapsed(), ok, jobs)))
    });
    let (outcomes, runs): (Vec<Result<String, String>>, Vec<_>) = stages.into_iter().unzip();

    let report = RunReport::from_run(
        executor::thread_count(),
        started.elapsed(),
        runs,
        telemetry::snapshot().since(&solver_before),
    );

    let mut failed = false;
    for (target, outcome) in order.iter().zip(outcomes) {
        match outcome {
            Ok(buf) => print!("{buf}"),
            Err(e) => {
                eprintln!("error running {target}: {e}");
                failed = true;
                break;
            }
        }
    }

    if want_report {
        println!("{}", report.to_table().to_ascii());
        match write_report_json(&report, &out) {
            Ok(path) => println!("[wrote {path}]"),
            Err(e) => {
                eprintln!("error writing run report: {e}");
                failed = true;
            }
        }
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn write_report_json(report: &RunReport, out: &Path) -> Result<String, std::io::Error> {
    std::fs::create_dir_all(out)?;
    let path = out.join("run_report.json");
    std::fs::write(&path, report.to_json())?;
    Ok(path.display().to_string())
}

fn emit(buf: &mut String, table: &Table, out: &Path, name: &str) -> Result<(), StageError> {
    writeln!(buf, "{}", table.to_ascii())?;
    let path = table.write_csv(out, name)?;
    writeln!(buf, "[wrote {}]\n", path.display())?;
    Ok(())
}

fn calibrations() -> Result<&'static Vec<CalibratedWorkload>, StageError> {
    static CACHE: OnceLock<Result<Vec<CalibratedWorkload>, String>> = OnceLock::new();
    CACHE
        .get_or_init(|| {
            eprintln!("[calibrating all 12 workloads: frequency × memory sweeps …]");
            calibrate_all(&CalibrationBudget::default())
                .map_err(|e| format!("calibration failed: {e}"))
        })
        .as_ref()
        .map_err(|e| StageError::from(e.clone()))
}

fn model_inputs() -> (
    Vec<memsense_model::WorkloadParams>,
    SystemConfig,
    QueueingCurve,
) {
    (
        figures::paper_classes(),
        SystemConfig::paper_baseline(),
        QueueingCurve::composite_default(),
    )
}

fn run_target(target: &str, out: &Path, buf: &mut String) -> Result<(), StageError> {
    match target {
        "fig1" => emit(buf, &figures::fig1_table(8), out, "fig1")?,
        "fig2" | "fig4" | "fig5" => {
            let (class, name) = match target {
                "fig2" => (Class::BigData, "fig2"),
                "fig4" => (Class::Enterprise, "fig4"),
                _ => (Class::Hpc, "fig5"),
            };
            let series = class_series(class, &SeriesBudget::default())?;
            // Terminal view of the figure: CPI over time per workload.
            let plot_series: Vec<memsense_experiments::plot::Series> = series
                .iter()
                .map(|s| {
                    memsense_experiments::plot::Series::new(
                        s.workload.name(),
                        s.samples
                            .iter()
                            .map(|p| (p.time_s * 1e3, p.measurement.cpi_eff))
                            .collect(),
                    )
                })
                .collect();
            writeln!(
                buf,
                "{}",
                memsense_experiments::plot::ascii_plot(
                    &format!("{name} (shape): effective CPI over time"),
                    "simulated time (ms)",
                    "CPI",
                    &plot_series,
                    64,
                    14,
                )
            )?;
            emit(
                buf,
                &summary_table(&format!("{name}: characterization summary"), &series),
                out,
                name,
            )?;
            for s in &series {
                let slug = s.workload.name().to_lowercase().replace(' ', "_");
                s.to_table().write_csv(out, &format!("{name}_{slug}"))?;
            }
        }
        "fig3" => emit(buf, &tables::fig3(calibrations()?), out, "fig3")?,
        "fig6" => emit(buf, &classify::fig6_table(calibrations()?)?, out, "fig6")?,
        "fig7" => {
            let fig = figures::fig7()?;
            for sweep in &fig.sweeps {
                writeln!(
                    buf,
                    "{}: unloaded {:.1} ns, max stable {:.1} GB/s ({:.0}% efficiency)",
                    sweep.label,
                    sweep.unloaded_latency_ns,
                    sweep.max_stable_gbps,
                    sweep.efficiency() * 100.0
                )?;
            }
            emit(buf, &figures::fig7_table(&fig), out, "fig7")?;
        }
        "fig8" => {
            let (classes, sys, curve) = model_inputs();
            let series: Vec<memsense_experiments::plot::Series> = classes
                .iter()
                .map(|class| {
                    let sweep = memsense_model::sensitivity::bandwidth_sweep(
                        class,
                        &sys,
                        &curve,
                        &memsense_model::sensitivity::default_bandwidth_deltas(),
                    )?;
                    Ok(memsense_experiments::plot::Series::new(
                        class.name.clone(),
                        sweep
                            .iter()
                            .map(|p| (p.bandwidth_per_core, (p.cpi_ratio - 1.0) * 100.0))
                            .collect(),
                    ))
                })
                .collect::<Result<_, memsense_experiments::ExperimentError>>()?;
            writeln!(
                buf,
                "{}",
                memsense_experiments::plot::ascii_plot(
                    "Fig. 8 (shape): CPI increase vs available bandwidth per core",
                    "GB/s per core",
                    "dCPI %",
                    &series,
                    64,
                    16,
                )
            )?;
            emit(
                buf,
                &figures::fig8_table(&classes, &sys, &curve)?,
                out,
                "fig8",
            )?;
        }
        "fig9" => {
            let (classes, sys, curve) = model_inputs();
            emit(
                buf,
                &figures::fig9_table(&classes, &sys, &curve)?,
                out,
                "fig9",
            )?;
        }
        "fig10" => {
            let (classes, sys, curve) = model_inputs();
            let series: Vec<memsense_experiments::plot::Series> = classes
                .iter()
                .map(|class| {
                    let sweep = memsense_model::sensitivity::latency_sweep(
                        class,
                        &sys,
                        &curve,
                        &memsense_model::sensitivity::default_latency_steps(),
                    )?;
                    Ok(memsense_experiments::plot::Series::new(
                        class.name.clone(),
                        sweep
                            .iter()
                            .map(|p| (p.unloaded_latency_ns, (p.cpi_ratio - 1.0) * 100.0))
                            .collect(),
                    ))
                })
                .collect::<Result<_, memsense_experiments::ExperimentError>>()?;
            writeln!(
                buf,
                "{}",
                memsense_experiments::plot::ascii_plot(
                    "Fig. 10 (shape): CPI increase vs compulsory latency",
                    "compulsory latency ns",
                    "dCPI %",
                    &series,
                    64,
                    16,
                )
            )?;
            emit(
                buf,
                &figures::fig10_table(&classes, &sys, &curve)?,
                out,
                "fig10",
            )?;
        }
        "fig11" => {
            let (classes, sys, curve) = model_inputs();
            emit(
                buf,
                &figures::fig11_table(&classes, &sys, &curve)?,
                out,
                "fig11",
            )?;
        }
        "tab2" => emit(buf, &tables::tab2(calibrations()?), out, "tab2")?,
        "tab3" => {
            let cal = calibrations()?
                .iter()
                .find(|c| c.workload == Workload::StructuredData)
                .ok_or("structured data missing from calibration set")?
                .clone();
            let v = validate::validate_calibration(cal);
            emit(buf, &v.to_table(), out, "tab3")?;
        }
        "tab4" => emit(buf, &tables::tab4(calibrations()?), out, "tab4")?,
        "tab5" => emit(buf, &tables::tab5(calibrations()?), out, "tab5")?,
        "tab6" => emit(buf, &classify::tab6_table(calibrations()?)?, out, "tab6")?,
        "tab7" => {
            let (classes, sys, curve) = model_inputs();
            emit(
                buf,
                &figures::tab7_table(&classes, &sys, &curve)?,
                out,
                "tab7",
            )?;
        }
        "plan" => {
            // The fleet-scale capacity planner over the built-in example
            // mix; candidate evaluations fan out through the executor and
            // attribute to this stage via the `plan/` job-label prefix.
            use memsense_plan::spec::PlanSpec;
            use memsense_plan::{planner, report};
            let plan = planner::plan(&PlanSpec::example())?;
            writeln!(
                buf,
                "plan: {:.2} Mreq/s over {} candidates ({} pruned), mode: {}",
                plan.total_mreq_per_s,
                plan.candidates.len(),
                plan.pruned.len(),
                if plan.colocate {
                    "colocated"
                } else {
                    "dedicated"
                },
            )?;
            for p in &plan.pruned {
                writeln!(buf, "pruned: {} (dominated by {})", p.name, p.dominated_by)?;
            }
            match &plan.recommendation {
                Some(name) => writeln!(buf, "recommendation: {name}")?,
                None => writeln!(buf, "recommendation: none (no candidate meets every SLA)")?,
            }
            writeln!(buf)?;
            emit(
                buf,
                &report::candidates_table(&plan),
                out,
                "plan_candidates",
            )?;
            emit(buf, &report::frontier_table(&plan), out, "plan_frontier")?;
            std::fs::create_dir_all(out)?;
            let path = out.join("plan.json");
            std::fs::write(&path, format!("{}\n", report::plan_json(&plan).canonical()))?;
            writeln!(buf, "[wrote {}]\n", path.display())?;
        }
        "io" => {
            emit(
                buf,
                &memsense_experiments::io_pressure::io_pressure_table(8, 120_000, 200_000.0)?,
                out,
                "io_pressure",
            )?;
        }
        "colocation" => {
            use memsense_model::colocation::{solve_colocated, Tenant};
            let (_, sys, curve) = model_inputs();
            let classes = memsense_model::WorkloadParams::all_classes();
            let mut t = Table::new(
                "Colocation: interference when classes share the baseline's channels (8+8 threads)",
                &[
                    "tenant_a",
                    "tenant_b",
                    "cpi_a",
                    "interference_a",
                    "cpi_b",
                    "interference_b",
                    "util",
                ],
            );
            // Every tenant pairing solves independently; run the pair grid
            // on the executor in row-major order.
            let pairs: Vec<(
                memsense_model::WorkloadParams,
                memsense_model::WorkloadParams,
            )> = classes
                .iter()
                .flat_map(|a| classes.iter().map(move |b| (a.clone(), b.clone())))
                .collect();
            let rows = executor::par_map_full(
                pairs,
                |_, (a, b)| format!("colocation/{} + {}", a.name, b.name),
                |(a, b)| -> Result<Vec<String>, memsense_experiments::ExperimentError> {
                    let solved = solve_colocated(
                        &[
                            Tenant {
                                workload: a.clone(),
                                threads: 8,
                            },
                            Tenant {
                                workload: b.clone(),
                                threads: 8,
                            },
                        ],
                        &sys,
                        &curve,
                    )?;
                    Ok(vec![
                        a.name.clone(),
                        b.name.clone(),
                        format!("{:.3}", solved.tenants[0].cpi_eff),
                        format!("{:.3}", solved.tenants[0].interference),
                        format!("{:.3}", solved.tenants[1].cpi_eff),
                        format!("{:.3}", solved.tenants[1].interference),
                        format!("{:.0}%", solved.utilization * 100.0),
                    ])
                },
            )
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?;
            for row in rows {
                t.row(row);
            }
            emit(buf, &t, out, "colocation")?;
        }
        "design" => {
            use memsense_model::design::{
                best_per_cost, default_grid, evaluate, pareto_frontier, Mix,
            };
            let (_, sys, curve) = model_inputs();
            let mut t = Table::new(
                "Design-space Pareto frontier (balanced class mix)",
                &["design", "cost", "rel_throughput", "perf_per_cost"],
            );
            let ev = evaluate(&default_grid(), &Mix::balanced(), &sys, &curve)?;
            for e in pareto_frontier(&ev) {
                t.row(vec![
                    e.point.label(),
                    format!("{:.2}", e.point.cost),
                    format!("{:.3}", e.throughput),
                    format!("{:.3}", e.efficiency),
                ]);
            }
            emit(buf, &t, out, "design_pareto")?;
            let mut picks = Table::new(
                "Best perf-per-cost design by dominant class (Sec. VI.D guidance)",
                &[
                    "dominant_class",
                    "design",
                    "rel_throughput",
                    "perf_per_cost",
                ],
            );
            // One grid evaluation per dominant class, in class order.
            let pick_rows = executor::par_map_full(
                memsense_model::WorkloadParams::all_classes(),
                |_, class| format!("design/{}", class.name),
                |class| -> Result<Vec<String>, memsense_experiments::ExperimentError> {
                    let name = class.name.clone();
                    let pick = best_per_cost(&Mix::dominated_by(class), &sys, &curve)?;
                    Ok(vec![
                        name,
                        pick.point.label(),
                        format!("{:.3}", pick.throughput),
                        format!("{:.3}", pick.efficiency),
                    ])
                },
            )
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?;
            for row in pick_rows {
                picks.row(row);
            }
            emit(buf, &picks, out, "design_picks")?;
        }
        "fidelity" => {
            // Ablation: how much do the opt-in fidelity features change the
            // measured queueing curve and a workload's CPI?
            use memsense_mlc::{loaded_latency_sweep, MlcConfig};
            use memsense_sim::config::{MemoryConfig, RefreshConfig, RowPolicy};
            let variants: Vec<(&str, MemoryConfig)> = vec![
                (
                    "baseline (closed page, no refresh)",
                    MemoryConfig::ddr3_1867(),
                ),
                ("open page", {
                    let mut c = MemoryConfig::ddr3_1867();
                    c.row_policy = RowPolicy::open_page_ddr3();
                    c
                }),
                ("refresh", {
                    let mut c = MemoryConfig::ddr3_1867();
                    c.refresh = Some(RefreshConfig::ddr3_4gb());
                    c
                }),
            ];
            let mut t = Table::new(
                "Fidelity ablation: MLC sweep under optional memory features",
                &["variant", "unloaded_ns", "max_stable_gbps", "efficiency"],
            );
            // Each variant simulates its own MLC sweep; run them on the
            // executor in slate order (infallible jobs).
            let rows = executor::par_map_full(
                variants,
                |_, (label, _)| format!("fidelity/{label}"),
                |(label, memory)| -> Result<Vec<String>, core::convert::Infallible> {
                    let sweep = loaded_latency_sweep(&MlcConfig {
                        memory,
                        ..MlcConfig::default()
                    });
                    Ok(vec![
                        label.to_string(),
                        format!("{:.1}", sweep.unloaded_latency_ns),
                        format!("{:.1}", sweep.max_stable_gbps),
                        format!("{:.0}%", sweep.efficiency() * 100.0),
                    ])
                },
            );
            for row in rows {
                let Ok(row) = row;
                t.row(row);
            }
            emit(buf, &t, out, "fidelity")?;
        }
        "scorecard" => {
            let sc = memsense_experiments::scorecard::scorecard(calibrations()?)?;
            emit(buf, &sc.to_table(), out, "scorecard")?;
            if !sc.all_pass() {
                return Err("scorecard has failing checks".into());
            }
        }
        "channels" => {
            let (classes, sys, curve) = model_inputs();
            emit(
                buf,
                &memsense_experiments::sweeps::channel_sweep_table(&classes, &sys, &curve)?,
                out,
                "channels",
            )?;
            emit(
                buf,
                &memsense_experiments::sweeps::speed_sweep_table(&classes, &sys, &curve)?,
                out,
                "speeds",
            )?;
            emit(
                buf,
                &memsense_experiments::sweeps::frequency_sweep_table(&classes, &sys, &curve)?,
                out,
                "frequencies",
            )?;
        }
        "cpistack" => {
            let (classes, sys, curve) = model_inputs();
            let mut t = Table::new(
                "CPI stacks on the paper baseline",
                &[
                    "class",
                    "core",
                    "compulsory",
                    "queueing",
                    "bw_wall",
                    "total",
                    "mem_frac",
                ],
            );
            for class in &classes {
                let solved = memsense_model::solver::solve_cpi(class, &sys, &curve)?;
                let stack = solved.cpi_stack(class, &sys);
                t.row(vec![
                    class.name.clone(),
                    format!("{:.3}", stack.cpi_cache),
                    format!("{:.3}", stack.compulsory_stall),
                    format!("{:.3}", stack.queueing_stall),
                    format!("{:.3}", stack.bandwidth_residual),
                    format!("{:.3}", stack.total()),
                    format!("{:.0}%", stack.memory_fraction() * 100.0),
                ]);
            }
            emit(buf, &t, out, "cpistack")?;
        }
        "tornado" => {
            let (classes, sys, curve) = model_inputs();
            emit(
                buf,
                &memsense_experiments::tornado::tornado_table(&classes, &sys, &curve, 0.2)?,
                out,
                "tornado",
            )?;
        }
        "futuretech" => {
            let (classes, _, curve) = model_inputs();
            emit(
                buf,
                &figures::future_tech_table(&classes, &curve)?,
                out,
                "futuretech",
            )?;
        }
        "numa" => {
            let (classes, _, curve) = model_inputs();
            emit(buf, &figures::numa_table(&classes, &curve)?, out, "numa")?;
        }
        "hierarchy" => {
            let (classes, _, _) = model_inputs();
            let t = figures::hierarchy_table(
                &classes,
                Nanoseconds(50.0),
                Nanoseconds(300.0),
                Nanoseconds(75.0),
                GigaHertz(2.7),
            )?;
            emit(buf, &t, out, "hierarchy")?;
        }
        "ablation" => {
            emit(
                buf,
                &ablation::constant_bf_table(calibrations()?),
                out,
                "ablation_bf",
            )?;
            let (classes, sys, _) = model_inputs();
            emit(
                buf,
                &ablation::queueing_curve_table(&classes, &sys)?,
                out,
                "ablation_queueing",
            )?;
            let mut t = Table::new(
                "Ablation: prefetcher effect on blocking factor",
                &["workload", "bf_on", "bf_off"],
            );
            // The two prefetch ablations calibrate independent machines.
            let rows = executor::par_map_full(
                vec![Workload::Bwaves, Workload::StructuredData],
                |_, w| format!("ablation/prefetch {}", w.name()),
                |w| -> Result<Vec<String>, memsense_experiments::ExperimentError> {
                    let ab = ablation::prefetch_ablation(w, &CalibrationBudget::default())?;
                    Ok(vec![
                        w.name().to_string(),
                        format!("{:.3}", ab.bf_prefetch_on),
                        format!("{:.3}", ab.bf_prefetch_off),
                    ])
                },
            )
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?;
            for row in rows {
                t.row(row);
            }
            emit(buf, &t, out, "ablation_prefetch")?;
        }
        "report" => {
            // A single markdown report combining every reproduced artifact.
            let mut md = String::from(
                "# memsense reproduction report\n\nGenerated by `repro report`. \
                 All values measured on the simulated testbed / analytic model.\n\n",
            );
            let push = |md: &mut String, t: &Table| {
                md.push_str("```text\n");
                md.push_str(&t.to_ascii());
                md.push_str("```\n\n");
            };
            push(&mut md, &figures::fig1_table(8));
            let (classes, sys, curve) = model_inputs();
            push(&mut md, &tables::tab2(calibrations()?));
            let cal = calibrations()?
                .iter()
                .find(|c| c.workload == Workload::StructuredData)
                .ok_or("structured data missing from calibration set")?
                .clone();
            push(&mut md, &validate::validate_calibration(cal).to_table());
            push(&mut md, &tables::tab4(calibrations()?));
            push(&mut md, &tables::tab5(calibrations()?));
            push(&mut md, &classify::fig6_table(calibrations()?)?);
            push(&mut md, &classify::tab6_table(calibrations()?)?);
            let fig = figures::fig7()?;
            push(&mut md, &figures::fig7_table(&fig));
            push(&mut md, &figures::fig8_table(&classes, &sys, &curve)?);
            push(&mut md, &figures::fig9_table(&classes, &sys, &curve)?);
            push(&mut md, &figures::fig10_table(&classes, &sys, &curve)?);
            push(&mut md, &figures::fig11_table(&classes, &sys, &curve)?);
            push(&mut md, &figures::tab7_table(&classes, &sys, &curve)?);
            push(&mut md, &figures::future_tech_table(&classes, &curve)?);
            push(&mut md, &figures::numa_table(&classes, &curve)?);
            push(
                &mut md,
                &memsense_experiments::tornado::tornado_table(&classes, &sys, &curve, 0.2)?,
            );
            std::fs::create_dir_all(out)?;
            let path = out.join("REPORT.md");
            std::fs::write(&path, md)?;
            writeln!(buf, "[wrote {}]", path.display())?;
        }
        other => return Err(format!("unknown target: {other}").into()),
    }
    Ok(())
}
