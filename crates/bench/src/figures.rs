//! The declared figures: the paper's Tables 1–3 and Figures 2–6, the
//! ablations and extension figures, and `all`, a one-point-per-artifact
//! summary of the paper's.
//!
//! Each declaration is data for [`crate::run`]: cells, blocks and
//! claims. Table 3 and Figure 2 are analytic and dispatch-only, so their
//! numbers are constants computed here; `fig_scale` adds a decision
//! microbench as its extra part.

use std::iter::once;
use std::time::Instant;

use hetsched::cluster::{DispatchCtx, FleetGroup, FleetState, Policy};
use hetsched::desim::Rng64;
use hetsched::policies::{JsqScan, LeastLoadScan};
use hetsched::prelude::*;
use hetsched::scenarios::{fig2_deviations, Fig2Dispatcher};

use crate::{Block, Cell, Entry, Expr, Figure, Fmt, Op};

/// A figure's declaration at a fidelity scale.
pub type Declare = fn(f64) -> Figure;

/// Every figure: its name (the binary's first argument) and its
/// declaration at fidelity `scale`. Fault, kill and partition times
/// follow the scaled horizon, so every fidelity sees the same expected
/// number of events of each kind.
pub const FIGURES: [(&str, Declare); 20] = [
    ("table1", |_| table1()),
    ("table2", |_| table2()),
    ("table3", |_| table3()),
    ("fig2", |_| fig2()),
    ("fig3", |_| fig3()),
    ("fig4", |_| fig4()),
    ("fig5", |_| fig5()),
    ("fig6", |_| fig6()),
    ("ablation_burstiness", |_| ablation_burstiness()),
    ("ablation_discipline", |_| ablation_discipline()),
    ("ablation_dispatcher", |_| ablation_dispatcher()),
    ("ablation_faults", ablation_faults),
    ("ablation_sizes", |_| ablation_sizes()),
    ("extra_baselines", |_| extra_baselines()),
    ("fig_faults", fig_faults),
    ("fig_dispatch", fig_dispatch),
    ("fig_unreliable", fig_unreliable),
    ("fig_scale", fig_scale),
    ("fig_malleable", |_| fig_malleable()),
    ("all", |_| all()),
];

/// The figure called `name` at fidelity `scale`.
pub fn declare(name: &str, scale: f64) -> Option<Figure> {
    FIGURES.iter().find(|f| f.0 == name).map(|f| f.1(scale))
}

const RATIO: &str = "mean_response_ratio";
const SLOWDOWN: &str = "mean_slowdown";

fn text(s: impl Into<String>) -> Entry {
    Entry::Text(s.into())
}

fn ci(cell: impl Into<String>, stat: &'static str) -> Entry {
    Entry::Ci(cell.into(), stat)
}

fn num(e: Expr, fmt: Fmt) -> Entry {
    Entry::Num(e, fmt)
}

fn stat(cell: impl Into<String>, name: &'static str) -> Expr {
    Expr::Stat(cell.into(), name)
}

fn c(x: f64) -> Expr {
    Expr::Const(x)
}

fn change(a: impl Into<String>, b: impl Into<String>, stat: &'static str) -> Expr {
    Expr::Change(a.into(), b.into(), stat)
}

fn gain(a: impl Into<String>, b: impl Into<String>, stat: &'static str) -> Expr {
    Expr::Gain(a.into(), b.into(), stat)
}

/// A cell's statistics, each printed by its format.
fn stats(cell: &str, columns: &[(&'static str, Fmt)]) -> Vec<Entry> {
    columns
        .iter()
        .map(|&(s, fmt)| num(stat(cell, s), fmt))
        .collect()
}

/// The `(0, x)` term of a claim that `x` is positive.
fn positive(cell: impl Into<String>, name: &'static str) -> (Expr, Expr) {
    (c(0.0), stat(cell, name))
}

macro_rules! formats {
    ($($name:ident => $fmt:literal),* $(,)?) => {
        $(fn $name(x: f64) -> String {
            format!($fmt, x = x)
        })*
    };
}

formats!(
    plain => "{x}",
    f0 => "{x:.0}",
    f1 => "{x:.1}",
    f2 => "{x:.2}",
    f3 => "{x:.3}",
    f4 => "{x:.4}",
    f5 => "{x:.5}",
    pct0 => "{x:.0}%",
    pct1 => "{x:.1}%",
    signed_pct1 => "{x:+.1}%",
    signed_pct2 => "{x:+.2}%",
);

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// Table 1 — workload distribution generated by Dynamic Least-Load:
/// seven computers at 70% utilization. The paper's row is strongly
/// skewed toward the fast machines, far beyond speed-proportional.
fn table1() -> Figure {
    let speeds = scenarios::table1_speeds();
    let total: f64 = speeds.iter().sum();
    let rows = (speeds.iter().enumerate())
        .map(|(i, &s)| {
            let share = Expr::Share("table1".into(), i);
            vec![num(c(s), f3), num(share, f2), num(c(100.0 * s / total), f2)]
        })
        .collect();
    let cfg = ClusterConfig::paper_default(&speeds);
    Figure::new("table1")
        .cell("table1", cfg, PolicySpec::DynamicLeastLoad)
        .table(
            "Table 1: workload distribution under Dynamic Least-Load (rho = 0.70)\n\
             paper row (%): 0.29  1.75  3.84  7.17  14.59  27.95  30.90\n",
            "speed|measured %|weighted %".split('|'),
            rows,
        )
        .text(
            "\nNote: slow machines receive far less than their speed share — the\n\
             observation motivating the optimized allocation (paper §2.2).",
        )
}

/// Table 2 — the 2×2 taxonomy of static schemes ({weighted, optimized}
/// allocation × {random, round-robin} dispatching), each cell run live
/// on a small heterogeneous system.
fn table2() -> Figure {
    let cfg = ClusterConfig::paper_default(&[1.0, 1.0, 4.0, 8.0]);
    let mut fig = Figure::new("table2");
    let mut rows = Vec::new();
    for (name, dispatcher) in [
        ("random", DispatcherSpec::Random),
        ("round-robin", DispatcherSpec::RoundRobin),
    ] {
        let [w, o] = [AllocationSpec::Weighted, AllocationSpec::optimized()].map(|allocation| {
            PolicySpec::Static {
                allocation,
                dispatcher,
            }
        });
        let mut row = vec![text(format!("{name} ({} / {})", w.label(), o.label()))];
        for spec in [w, o] {
            fig = fig.cell(spec.label(), cfg.clone(), spec);
            row.push(ci(spec.label(), RATIO));
        }
        rows.push(row);
    }
    fig.table(
        "Table 2: job dispatching × workload allocation (mean response ratio)",
        "dispatching|weighted|optimized".split('|'),
        rows,
    )
}

/// Table 3 — the base configuration of §5.3–§5.4 with the allocations
/// both schemes compute for it at ρ = 0.7.
fn table3() -> Figure {
    let speeds = scenarios::table3_speeds();
    let sys = HetSystem::from_utilization(&speeds, 0.7).expect("the Table-3 system is valid");
    let (weighted, optimized) = (
        sys.weighted_allocation(),
        closed_form::optimized_allocation(&sys),
    );
    // Grouped by distinct speed, as the paper's table is.
    let rows = (0..speeds.len())
        .filter(|&i| !speeds[..i].contains(&speeds[i]))
        .map(|i| {
            let count = speeds.iter().filter(|&&x| x == speeds[i]).count();
            vec![
                num(c(speeds[i]), plain),
                num(c(count as f64), plain),
                num(c(weighted[i]), f4),
                num(c(optimized[i]), f4),
            ]
        })
        .collect();
    let fast_share: f64 = (0..speeds.len())
        .filter(|&i| speeds[i] >= 5.0)
        .map(|i| optimized[i])
        .sum();
    let (capacity, fast) = (100.0 * 27.0 / 44.0, 100.0 * fast_share);
    Figure::new("table3")
        .table(
            "Table 3: base system configuration (15 computers, aggregate speed 44)",
            "speed|number|weighted α (each)|optimized α (each, rho=0.7)".split('|'),
            rows,
        )
        .text(format!(
            "\nThe three fastest machines (27/44 = {capacity:.0}% of capacity) receive \
             {fast:.0}% of\nthe jobs under the optimized scheme at rho = 0.7."
        ))
        .record(
            "fastest_three_get_more_than_their_capacity_pct",
            c(capacity),
            Op::Lt,
            c(fast),
            "paper: a disproportionately high share to fast machines",
        )
}

/// Figure 2's two traces (round-robin, random): the workload allocation
/// deviation of 30 consecutive 120 s intervals, from one representative
/// seed.
fn fig2_traces() -> (Vec<f64>, Vec<f64>) {
    (
        fig2_deviations(Fig2Dispatcher::RoundRobin, 1),
        fig2_deviations(Fig2Dispatcher::Random, 1),
    )
}

/// Figure 2 — comparison of job dispatching strategies: round-robin
/// based dispatching should stay far below random based dispatching and
/// fluctuate far less.
fn fig2() -> Figure {
    let (rr, ran) = fig2_traces();
    let rows = (rr.iter().zip(&ran).enumerate())
        .map(|(i, (&a, &b))| vec![num(c((i + 1) as f64), plain), num(c(a), f5), num(c(b), f5)])
        .collect();
    let points = |v: &[f64]| {
        (v.iter().enumerate())
            .map(|(i, &d)| ((i + 1) as f64, c(d)))
            .collect()
    };
    let summary = |name: &str, v: &[f64]| {
        let max = v.iter().copied().fold(0.0, f64::max);
        let vs_rr = mean(v) / mean(&rr);
        vec![
            text(name),
            num(c(mean(v)), f5),
            num(c(max), f5),
            num(c(vs_rr), f1),
        ]
    };
    let mut fig = Figure::new("fig2").table(
        "Figure 2: workload allocation deviation per 120 s interval",
        "interval|round-robin|random".split('|'),
        rows,
    );
    fig.blocks.push(Block::Chart {
        title: "Figure 2: allocation deviation per interval (lower = smoother)".into(),
        height: 14,
        series: vec![
            ("round-robin".into(), points(&rr)),
            ("random".into(), points(&ran)),
        ],
    });
    fig.table(
        "Figure 2 summary",
        "dispatching|mean|max|mean / round-robin mean".split('|'),
        vec![summary("round-robin", &rr), summary("random", &ran)],
    )
    .record(
        "round_robin_deviates_less_than_random",
        c(mean(&rr)),
        Op::Lt,
        c(mean(&ran)),
        "",
    )
}

/// A paper sweep: the five headline policies at every x (its label key,
/// value and configuration), one table per `(title, statistic)` panel
/// with the x column printed by `fmt`, and a chart of one statistic.
fn headline_sweep(
    name: &'static str,
    x_header: &str,
    fmt: Fmt,
    xs: Vec<(String, f64, ClusterConfig)>,
    panels: &[(&str, &'static str)],
    chart: (&str, &'static str),
) -> Figure {
    let policies = scenarios::headline_policies();
    let label = |key: &str, p: &PolicySpec| format!("{name} {key} {}", p.label());
    let mut fig = Figure::new(name);
    for (key, _, cfg) in &xs {
        for p in &policies {
            fig = fig.cell(label(key, p), cfg.clone(), *p);
        }
    }
    let header: Vec<String> = once(x_header.to_string())
        .chain(policies.iter().map(|p| p.label()))
        .collect();
    for &(title, s) in panels {
        let row = |(key, x, _): &(String, f64, ClusterConfig)| {
            let entries = policies.iter().map(|p| ci(label(key, p), s));
            once(num(c(*x), fmt)).chain(entries).collect()
        };
        fig = fig.table(title, header.clone(), xs.iter().map(row).collect());
    }
    let series = policies.iter().map(|p| {
        let points = xs
            .iter()
            .map(|(key, x, _)| (*x, stat(label(key, p), chart.1)));
        (p.label(), points.collect())
    });
    fig.blocks.push(Block::Chart {
        title: chart.0.into(),
        height: 16,
        series: series.collect(),
    });
    fig
}

/// The paper's headline shapes: ORR's gain in mean response ratio over
/// a baseline at one sweep point. Each is the point's cell-label prefix,
/// the baseline, and the paper's number.
const HEADLINES: [(&str, &str, &str); 4] = [
    ("fig3 fast=20", "WRR", "paper ~42%"),
    ("fig4 n=20", "WRAN", "paper 35-40%"),
    ("fig5 rho=0.9", "WRR", "paper ~24%"),
    ("fig5 rho=0.9", "WRAN", "paper ~34%"),
];

/// Records the headline shapes whose cells `fig` has, each named like
/// `orr_gain_over_wrr_pct_at_fast_20`.
fn headlines(fig: Figure) -> Figure {
    HEADLINES.iter().fold(fig, |fig, &(at, base, note)| {
        let orr = format!("{at} ORR");
        if !fig.cells.iter().any(|cell| cell.label == orr) {
            return fig;
        }
        let point = at.split_once(' ').map_or(at, |p| p.1).replace('=', "_");
        let name = format!("orr_gain_over_{}_pct_at_{point}", base.to_lowercase());
        let gain = gain(orr, format!("{at} {base}"), RATIO);
        fig.record(&name, c(0.0), Op::Lt, gain, note)
    })
}

/// Figure 6's underestimation edge at heavy load.
fn underestimate_claim(fig: Figure, wrr: &str) -> Figure {
    fig.record(
        "orr_underestimating_10pct_falls_behind_wrr_at_rho_0.9",
        stat(wrr, RATIO),
        Op::Lt,
        stat("fig6 rho=0.9 O(-10%)RR", RATIO),
        "paper §5.4: fast machines overload",
    )
}

/// Figure 3 — effect of speed skewness: 16 slow and 2 fast computers,
/// the fast speed swept from 1 to 20 at ρ = 0.7. Optimized allocation
/// beats weighted once the system is heterogeneous, round-robin beats
/// random everywhere, and ORR approaches Dynamic Least-Load at extreme
/// skew.
fn fig3() -> Figure {
    let xs = (scenarios::fig3_sweep().into_iter())
        .map(|f| (format!("fast={f}"), f, scenarios::fig3_config(f)))
        .collect();
    let fig = headline_sweep(
        "fig3",
        "fast speed",
        plain,
        xs,
        &[
            (
                "Figure 3(a) mean response time vs fast-machine speed, rho = 0.70",
                "mean_response_time",
            ),
            (
                "Figure 3(b) mean response ratio vs fast-machine speed, rho = 0.70",
                RATIO,
            ),
            (
                "Figure 3(c) fairness vs fast-machine speed, rho = 0.70",
                "fairness",
            ),
        ],
        (
            "Figure 3(b): mean response ratio vs fast-machine speed",
            RATIO,
        ),
    );
    headlines(fig)
}

/// Figure 4 — effect of system size: 2 to 20 computers, half at speed
/// 10 and half at speed 1, at ρ = 0.7. ORR cuts 35–40% off WRAN's
/// response ratio beyond 6 computers.
fn fig4() -> Figure {
    let xs = (scenarios::fig4_sweep().into_iter())
        .map(|n| (format!("n={n}"), n as f64, scenarios::fig4_config(n)))
        .collect();
    let fig = headline_sweep(
        "fig4",
        "computers",
        plain,
        xs,
        &[
            (
                "Figure 4(a) mean response ratio vs system size, rho = 0.70",
                RATIO,
            ),
            (
                "Figure 4(b) fairness vs system size, rho = 0.70",
                "fairness",
            ),
        ],
        ("Figure 4(a): mean response ratio vs system size", RATIO),
    );
    headlines(fig)
}

/// Figure 5 — effect of system load: the Table-3 configuration with ρ
/// swept from 0.3 to 0.9. ORR wins among static schemes everywhere; at
/// ρ = 0.9 it is ~24% below WRR and ~34% below WRAN.
fn fig5() -> Figure {
    let xs = (scenarios::fig5_sweep().into_iter())
        .map(|rho| (format!("rho={rho}"), rho, scenarios::fig5_config(rho)))
        .collect();
    let fig = headline_sweep(
        "fig5",
        "rho",
        f1,
        xs,
        &[
            (
                "Figure 5(a) mean response ratio vs utilization (Table-3 base configuration)",
                RATIO,
            ),
            (
                "Figure 5(b) fairness vs utilization (Table-3 base configuration)",
                "fairness",
            ),
        ],
        ("Figure 5(a): mean response ratio vs utilization", RATIO),
    );
    headlines(fig)
}

/// Figure 6 — sensitivity of ORR to load-estimation errors of ±5/10/15%
/// on the Table-3 configuration, with WRR and exact ORR as references.
/// Underestimation is catastrophic at heavy load; overestimation is
/// nearly free (ORR(+15%) at ρ = 0.9 estimates 103.5% and degenerates to
/// WRR exactly, the paper's footnote 7).
fn fig6() -> Figure {
    let label = |rho: f64, p: &PolicySpec| format!("fig6 rho={rho} {}", p.label());
    let mut fig = Figure::new("fig6");
    for (panel, errors) in [
        ("(a) underestimation", [-0.05, -0.10, -0.15]),
        ("(b) overestimation", [0.05, 0.10, 0.15]),
    ] {
        let policies: Vec<PolicySpec> = once(PolicySpec::orr())
            .chain(errors.map(PolicySpec::orr_with_error))
            .chain(once(PolicySpec::wrr()))
            .collect();
        let mut rows = Vec::new();
        for rho in scenarios::fig5_sweep() {
            let mut row = vec![num(c(rho), f1)];
            for p in &policies {
                // Exact ORR and WRR are in both panels: one cell each.
                if !fig.cells.iter().any(|cell| cell.label == label(rho, p)) {
                    fig = fig.cell(label(rho, p), scenarios::fig5_config(rho), *p);
                }
                row.push(ci(label(rho, p), RATIO));
            }
            rows.push(row);
        }
        let header = once("rho".to_string()).chain(policies.iter().map(|p| p.label()));
        let title = format!("Figure 6{panel}: mean response ratio vs utilization");
        fig = fig.table(title, header, rows);
    }
    let fig = fig.text(
        "\nshape check: at rho=0.9 the underestimating variants should degrade\n\
         sharply (overloaded fast machines) while the overestimating ones stay\n\
         close to exact ORR.",
    );
    underestimate_claim(fig, "fig6 rho=0.9 WRR")
}

/// The reproduction summary: one point per paper artifact through one
/// pool, with the headline shapes as claims.
fn all() -> Figure {
    let (orr, wrr, wran) = (PolicySpec::orr(), PolicySpec::wrr(), PolicySpec::wran());
    let errors = [-0.10, 0.10].map(PolicySpec::orr_with_error).to_vec();
    let points = [
        ("fig3 fast=20", scenarios::fig3_config(20.0), vec![orr, wrr]),
        ("fig4 n=20", scenarios::fig4_config(20), vec![orr, wran]),
        (
            "fig5 rho=0.9",
            scenarios::fig5_config(0.9),
            vec![orr, wrr, wran],
        ),
        ("fig6 rho=0.9", scenarios::fig5_config(0.9), errors),
    ];
    let (rr, ran) = fig2_traces();
    let share = |i| num(Expr::Share("table1".into(), i), f2);
    let fastest = scenarios::table1_speeds().len() - 1;
    let row = |what: &str, value: Entry, paper: &str| vec![text(what), value, text(paper)];
    let mut rows = vec![
        row(
            "table1 DYNAMIC share of the slowest computer, %",
            share(0),
            "0.29",
        ),
        row(
            "table1 DYNAMIC share of the fastest computer, %",
            share(fastest),
            "30.90",
        ),
        row(
            "fig2 deviation mean, round-robin",
            num(c(mean(&rr)), f5),
            "",
        ),
        row("fig2 deviation mean, random", num(c(mean(&ran)), f5), ""),
    ];
    let table1 = ClusterConfig::paper_default(&scenarios::table1_speeds());
    let mut fig = Figure::new("all").cell("table1", table1, PolicySpec::DynamicLeastLoad);
    for (at, cfg, policies) in points {
        for p in policies {
            let label = format!("{at} {}", p.label());
            let ratio = num(stat(&label, RATIO), f3);
            rows.push(row(&format!("{label} mean response ratio"), ratio, ""));
            fig = fig.cell(label, cfg.clone(), p);
        }
    }
    let names: Vec<&str> = FIGURES[..FIGURES.len() - 1].iter().map(|f| f.0).collect();
    let summary = "Reproduction summary: one point per artifact";
    let fig = fig.table(summary, "artifact|measured|paper".split('|'), rows);
    underestimate_claim(headlines(fig), "fig5 rho=0.9 WRR")
        .record(
            "fig2_round_robin_deviates_less_than_random",
            c(mean(&rr)),
            Op::Lt,
            c(mean(&ran)),
            "",
        )
        .text(format!(
            "\nFor the full tables run the figures: {}",
            names.join(" ")
        ))
}

/// An ablation on the Table-3 configuration at ρ = 0.7: every variant
/// (label, configuration change) crossed with two policies, one row per
/// cell with its mean response ratio and fairness and, when `gain_column`
/// is given, the second policy's gain over the first.
fn ablation<T: Copy>(
    name: &'static str,
    title: &str,
    variant: &str,
    variants: &[(&str, T)],
    apply: fn(&mut ClusterConfig, T),
    policies: [PolicySpec; 2],
    gain_column: Option<(&str, Fmt)>,
) -> Figure {
    let mut fig = Figure::new(name);
    let mut header = vec![variant, "policy", "mean resp ratio", "fairness"];
    header.extend(gain_column.map(|g| g.0));
    let mut rows = Vec::new();
    for &(label, v) in variants {
        let mut cfg = scenarios::fig5_config(0.7);
        apply(&mut cfg, v);
        let cell = |p: &PolicySpec| format!("{label} {}", p.label());
        for (i, p) in policies.iter().enumerate() {
            fig = fig.cell(cell(p), cfg.clone(), *p);
            let (ratio, fairness) = (ci(cell(p), RATIO), ci(cell(p), "fairness"));
            let mut row = vec![text(label), text(p.label()), ratio, fairness];
            if let Some((_, fmt)) = gain_column {
                row.push(match i {
                    0 => text(""),
                    _ => num(gain(cell(p), cell(&policies[0]), RATIO), fmt),
                });
            }
            rows.push(row);
        }
    }
    fig.table(title, header, rows)
}

/// Ablation: arrival burstiness. The paper fixes the inter-arrival CV at
/// 3; this sweeps it from 1 (Poisson) to 5 and adds a correlated MMPP,
/// measuring how round-robin's advantage over random dispatching depends
/// on burstiness.
fn ablation_burstiness() -> Figure {
    let mmpp = ArrivalSpec::Mmpp {
        burst_factor: 10.0,
        frac_bursty: 0.1,
        cycle: 500.0,
    };
    let hyperexp = |cv| ArrivalSpec::Hyperexp { cv };
    ablation(
        "ablation_burstiness",
        "Ablation: arrival burstiness (Table-3 base config, rho = 0.70)",
        "arrivals",
        &[
            ("poisson (cv=1)", ArrivalSpec::Poisson),
            ("hyperexp cv=2", hyperexp(2.0)),
            ("hyperexp cv=3 (paper)", hyperexp(3.0)),
            ("hyperexp cv=5", hyperexp(5.0)),
            ("mmpp 10x burst", mmpp),
        ],
        |cfg, a| cfg.arrivals = a,
        [PolicySpec::oran(), PolicySpec::orr()],
        Some(("RR gain", pct1)),
    )
    .text(
        "\nshape check: round-robin dispatching (ORR) beats random dispatching\n\
         (ORAN) for every arrival process; smoother arrivals shrink the gap.",
    )
}

/// Ablation: service discipline. Exact PS, quantum round-robin with
/// three quanta, and FCFS: finite quanta reproduce PS, while FCFS is the
/// odd one out under heavy-tailed sizes (head-of-line blocking).
fn ablation_discipline() -> Figure {
    let rr = |quantum| DisciplineSpec::QuantumRoundRobin { quantum };
    ablation(
        "ablation_discipline",
        "Ablation: service discipline (Table-3 base config, rho = 0.70)",
        "discipline",
        &[
            ("PS (exact)", DisciplineSpec::ProcessorSharing),
            ("RR q=0.01s", rr(0.01)),
            ("RR q=0.1s", rr(0.1)),
            ("RR q=1s", rr(1.0)),
            ("FCFS", DisciplineSpec::Fcfs),
        ],
        |cfg, d| cfg.discipline = d,
        [PolicySpec::wrr(), PolicySpec::orr()],
        None,
    )
    .text(
        "\nshape check: the three RR quanta should track PS closely; FCFS should\n\
         show a far larger response ratio and fairness (head-of-line blocking by\n\
         heavy-tailed jobs).",
    )
}

/// Ablation: job-size variability. Bounded Pareto tail indices and
/// exponential, lognormal and Weibull sizes of the same mean: the
/// ORR-over-WRR ranking is a property of the scheduling, not of one size
/// distribution.
fn ablation_sizes() -> Figure {
    let mean = 76.8;
    let bp = |alpha| DistSpec::BoundedPareto {
        k: 10.0,
        p: 21600.0,
        alpha,
    };
    ablation(
        "ablation_sizes",
        "Ablation: job-size distribution (Table-3 base config, rho = 0.70)",
        "sizes",
        &[
            ("BP alpha=0.7", bp(0.7)),
            ("BP alpha=1.0 (paper)", DistSpec::paper_job_sizes()),
            ("BP alpha=1.3", bp(1.3)),
            ("BP alpha=1.9", bp(1.9)),
            ("exponential", DistSpec::Exponential { mean }),
            ("lognormal cv=3", DistSpec::LogNormal { mean, cv: 3.0 }),
            ("weibull k=0.5", DistSpec::Weibull { mean, shape: 0.5 }),
        ],
        |cfg, d| cfg.job_sizes = d,
        [PolicySpec::wrr(), PolicySpec::orr()],
        Some(("ORR gain", pct0)),
    )
    .text("\nshape check: ORR beats WRR for every size distribution.")
}

/// Labelled policies on the Table-3 configuration at ρ = 0.7, one row
/// per policy: its label, its description when it has one, and its mean
/// response ratio, fairness and p95 ratio.
fn policy_table(
    name: &'static str,
    title: &str,
    header: &str,
    policies: Vec<(String, &str, PolicySpec)>,
) -> Figure {
    let mut fig = Figure::new(name);
    let mut rows = Vec::new();
    for (label, info, policy) in policies {
        fig = fig.cell(&label, scenarios::fig5_config(0.7), policy);
        let mut row = vec![text(&label)];
        row.extend((!info.is_empty()).then(|| text(info)));
        row.extend([RATIO, "fairness", "p95_response_ratio"].map(|s| ci(&label, s)));
        rows.push(row);
    }
    fig.table(title, header.split('|'), rows)
}

/// Ablation: what makes Algorithm 2 win? Three dispatchers realize the
/// same optimized fractions: ORR (interleaved), BWRR (burst-per-cycle
/// weighted round-robin) and ORAN (random); AORR adapts ρ on its own.
/// If determinism alone carried the gain, BWRR would match ORR.
fn ablation_dispatcher() -> Figure {
    let aorr = PolicySpec::AdaptiveOrr {
        recompute_every: 500.0,
        safety_margin: 0.05,
    };
    let policies = [
        ("ORR (Algorithm 2)", PolicySpec::orr()),
        (
            "BWRR (bursty cycles)",
            PolicySpec::BurstyWrr { cycle_len: 100 },
        ),
        ("ORAN (random)", PolicySpec::oran()),
        ("AORR (adaptive rho)", aorr),
    ];
    policy_table(
        "ablation_dispatcher",
        "Ablation: dispatcher mechanism (optimized fractions, Table-3 config, rho = 0.70)",
        "dispatcher|mean resp ratio|fairness|p95 ratio",
        policies
            .map(|(label, p)| (label.to_string(), "", p))
            .to_vec(),
    )
    .text(
        "\nshape check: ORR < BWRR (interleaving, not determinism, carries the\n\
         gain) and BWRR sits between ORR and ORAN; AORR tracks ORR without being\n\
         told rho.",
    )
}

/// Extension: the static schemes between stronger and weaker
/// information regimes — delayed load feedback (DYNAMIC), sampled live
/// load (JSQ(d)) and clairvoyant sizes (SITA-E).
fn extra_baselines() -> Figure {
    let policies = [
        (PolicySpec::wran(), "speeds"),
        (PolicySpec::wrr(), "speeds"),
        (PolicySpec::oran(), "speeds+rho"),
        (PolicySpec::orr(), "speeds+rho"),
        (PolicySpec::SitaE, "job sizes (clairvoyant)"),
        (PolicySpec::DynamicLeastLoad, "delayed queue lengths"),
        (PolicySpec::Jsq { d: 2 }, "2 live queue probes"),
        (PolicySpec::Jsq { d: 4 }, "4 live queue probes"),
    ];
    policy_table(
        "extra_baselines",
        "Extra baselines (Table-3 base config, rho = 0.70)",
        "policy|information|mean resp ratio|fairness|p95 ratio",
        policies.map(|(p, info)| (p.label(), info, p)).to_vec(),
    )
    .text(
        "\nshape check: more information helps — static < delayed-dynamic <\n\
         live-probe policies; ORR should be the best of the static rows.",
    )
}

/// Mean time to repair of the fault figures (paper-fidelity seconds).
const MTTR: f64 = 20_000.0;

/// The Table-3 configuration at ρ = 0.7 with exponential crash/repair
/// at the given MTBF (paper-fidelity seconds), both times scaled with
/// the horizon.
fn faulty(mtbf: f64, scale: f64) -> ClusterConfig {
    scenarios::faults_config(0.7, mtbf * scale, MTTR * scale)
}

/// Fault ablation: ORR, WRR and Dynamic Least-Load as the failure rate
/// goes from none to frequent. Reported per cell: mean response ratio,
/// jobs lost per run, and the churn-conditioned (degraded) response time.
fn ablation_faults(scale: f64) -> Figure {
    let regimes = [
        ("none", None),
        ("rare", Some(400_000.0)),
        ("moderate", Some(100_000.0)),
        ("frequent", Some(40_000.0)),
    ];
    let policies = [
        PolicySpec::orr(),
        PolicySpec::wrr(),
        PolicySpec::DynamicLeastLoad,
    ];
    let label = |regime: &str, p: &PolicySpec| format!("{regime} {}", p.label());
    let mut fig = Figure::new("ablation_faults").text(format!(
        "\nFault ablation at rho=0.7 (Table-3 base configuration, MTTR={MTTR} s)"
    ));
    for (regime, mtbf) in regimes {
        let cfg = mtbf.map_or_else(|| scenarios::fig5_config(0.7), |m| faulty(m, scale));
        for p in &policies {
            fig = fig.cell(label(regime, p), cfg.clone(), *p);
        }
    }
    let header: Vec<String> = ["failure regime".into(), "avail".into()]
        .into_iter()
        .chain(policies.iter().map(|p| p.label()))
        .collect();
    for (title, metric) in [
        ("mean response ratio:", None),
        ("jobs lost per run:", Some("jobs_lost")),
        (
            "degraded response time:",
            Some("mean_degraded_response_time"),
        ),
    ] {
        let row = |regime: &str| -> Vec<Entry> {
            let avail = num(stat(label(regime, &policies[0]), "availability"), f3);
            let entries = policies.iter().map(|p| match metric {
                None => ci(label(regime, p), RATIO),
                Some(m) => num(stat(label(regime, p), m), f3),
            });
            [text(regime), avail].into_iter().chain(entries).collect()
        };
        fig = fig.table(title, header.clone(), regimes.map(|r| row(r.0)).to_vec());
    }
    let fault_free = |s| policies.map(|p| stat(label("none", &p), s));
    fig.gate_all(
        "fault_free_regime_loses_no_job",
        Op::Eq,
        fault_free("jobs_lost").map(|lost| (lost, c(0.0))),
    )
    .gate_all(
        "fault_free_regime_is_always_up",
        Op::Lt,
        fault_free("availability").map(|avail| (c(1.0 - 1e-12), avail)),
    )
}

/// Fault extension: static α versus re-optimized α under churn. ORR keeps
/// the allocation it computed for the full machine set; ReORR re-solves
/// Algorithm 1 over the survivors on every membership change. Both skip
/// believed-down machines, so the gap isolates re-optimizing itself.
fn fig_faults(scale: f64) -> Figure {
    let label = |mtbf: f64, p: &str| format!("mtbf={mtbf} {p}");
    let mut fig = Figure::new("fig_faults");
    let mut rows = Vec::new();
    for mtbf in [800_000.0, 400_000.0, 200_000.0, 100_000.0, 50_000.0] {
        for p in [PolicySpec::orr(), PolicySpec::reopt_orr()] {
            fig = fig.cell(label(mtbf, &p.label()), faulty(mtbf, scale), p);
        }
        let (orr, reorr) = (label(mtbf, "ORR"), label(mtbf, "ReORR"));
        let mut row = vec![num(c(mtbf), f0)];
        row.extend(stats(&orr, &[("availability", f3), ("crashes", f3)]));
        row.extend([ci(&orr, RATIO), num(stat(&orr, "jobs_lost"), f3)]);
        row.extend([ci(&reorr, RATIO), num(stat(&reorr, "jobs_lost"), f3)]);
        rows.push(row);
    }
    let (orr, reorr) = (label(50_000.0, "ORR"), label(50_000.0, "ReORR"));
    fig.table(
        format!("Fault sweep: ORR (static α) vs ReORR (re-optimized α), rho=0.7, MTTR={MTTR} s"),
        "MTBF (s)|avail|crashes|ORR ratio|ORR lost|ReORR ratio|ReORR lost".split('|'),
        rows,
    )
    .record(
        "reorr_change_over_orr_pct_at_mtbf_50000",
        change(&reorr, &orr, RATIO),
        Op::Lt,
        c(0.0),
        "negative: re-optimizing beats the static allocation",
    )
    .gate(
        "crashes_are_injected",
        c(0.0),
        Op::Lt,
        stat(&orr, "crashes"),
    )
    .gate(
        "crashes_cost_availability",
        stat(&orr, "availability"),
        Op::Lt,
        c(1.0),
    )
}

/// The 8-computer fleet with a strongly skewed speed profile the
/// dispatch, unreliable and malleable figures share.
fn skewed_fleet() -> ClusterConfig {
    ClusterConfig::paper_default(&[5.0, 3.0, 2.0, 1.5, 1.0, 1.0, 1.0, 1.0])
}

/// Dispatch-tier degradation: the global stream split i.i.d.-randomly
/// across `D ∈ {1, 2, 4, 8, 16}` dispatchers, each running ORR.
///
/// * naive shards lose the global spacing Algorithm 2 provides, and a
///   credit-mean sync plane phase-locks them rather than repairing it;
/// * the coordinated tier replays its peers' gaps from sequence stamps,
///   reconstructing the single-dispatcher sequence exactly;
/// * with the fastest machine killed 40% into the run under sticky
///   source-hash splitting, coordinated ReORR re-solves Algorithm 1 at
///   the measured post-crash rate and cuts the penalty.
fn fig_dispatch(scale: f64) -> Figure {
    use Coordination::{Naive, PhasePreserving};
    let syncs = [
        ("none", None),
        ("every 500 s", Some(500.0)),
        ("every 5000 s", Some(5000.0)),
    ];
    let label = |d: usize, co: Coordination, sync: &str| format!("D={d} {} {sync}", co.label());
    let base = label(1, Naive, "none");
    let mut fig = Figure::new("fig_dispatch");
    let mut rows = Vec::new();
    for d in [1, 2, 4, 8, 16] {
        for (co, syncs) in [(Naive, &syncs[..]), (PhasePreserving, &syncs[..2])] {
            for &(sync_label, sync) in syncs {
                // One shard has no peer to sync or coordinate with.
                if d == 1 && (sync.is_some() || co != Naive) {
                    continue;
                }
                let mut cfg = skewed_fleet();
                cfg.dispatch = DispatchSpec::sharded(d, SplitterSpec::IidRandom);
                cfg.dispatch.coordination = co;
                cfg.dispatch.sync = sync.map(|iv| SyncSpec::every(iv).with_latency(5.0));
                let l = label(d, co, sync_label);
                fig.cells.push(Cell::new(l.clone(), cfg, PolicySpec::orr()));
                let mut row = vec![num(c(d as f64), plain), text(co.label()), text(sync_label)];
                row.extend([ci(&l, RATIO), num(change(&l, &base, RATIO), signed_pct2)]);
                row.extend(stats(&l, &[("syncs_applied", f0), ("max_share_dev", f4)]));
                rows.push(row);
            }
        }
    }
    let share_devs: Vec<_> = (fig.cells.iter())
        .map(|cell| (stat(&cell.label, "max_share_dev"), c(0.05)))
        .collect();
    let replays = [2, 4, 8, 16].map(|d| {
        (
            stat(label(d, PhasePreserving, "none"), RATIO),
            stat(&base, RATIO),
        )
    });
    let vs_base = |co, sync| change(label(16, co, sync), &base, RATIO);
    let coord16 = vs_base(PhasePreserving, "every 500 s");
    let fig = fig
        .table(
            "ORR degradation under front-end sharding (i.i.d.-random splitter)",
            "D|coordination|sync|mean response ratio|degradation|syncs/run|max share dev"
                .split('|'),
            rows,
        )
        .gate_all("shards_get_their_expected_share", Op::Lt, share_devs)
        .gate_all("coordinated_tier_replays_d1", Op::Eq, replays)
        .gate(
            "coordinated_sync_beats_naive_sync_at_d16",
            coord16.clone(),
            Op::Lt,
            vs_base(Naive, "every 500 s"),
        )
        .gate(
            "coordinated_sync_beats_naive_tier_at_d16",
            coord16,
            Op::Lt,
            vs_base(Naive, "none"),
        );
    dispatch_faults(fig, scale)
}

/// `fig_dispatch`'s dispatch × fault scenario: `D = 8` shards under
/// sticky source-hash splitting, the fastest machine (index 0, speed 5
/// of 15.5) killed 40% into the run and never repaired, its jobs
/// resubmitted through the tier after a 10 s notice delay.
fn dispatch_faults(mut fig: Figure, scale: f64) -> Figure {
    let kill_at = 0.4 * skewed_fleet().scaled(scale).horizon;
    let mut healthy = skewed_fleet();
    healthy.dispatch = DispatchSpec::sharded(8, SplitterSpec::SourceHash { sources: 64 });
    let mut killed = healthy.clone();
    killed.faults = Some(FaultSpec {
        up_time: DistSpec::Deterministic { value: kill_at },
        down_time: DistSpec::Deterministic { value: 1.0e12 },
        on_crash: JobFaultSemantics::Resubmit,
        notice_delay_mean: 10.0,
        servers: Some(vec![0]),
    });
    let mut repaired = killed.clone();
    let plane = SyncSpec::every(500.0).with_latency(5.0);
    repaired.dispatch = repaired.dispatch.coordinated().with_sync(plane);
    let (kill, repair) = ("kill fastest (sticky ORR)", "same kill (coordinated ReORR)");
    let mut rows = Vec::new();
    for (label, cfg, policy) in [
        ("no fault", healthy, PolicySpec::orr()),
        (kill, killed, PolicySpec::orr()),
        (repair, repaired, PolicySpec::reopt_orr()),
    ] {
        let killed_at = match label {
            "no fault" => text(""),
            _ => num(c(kill_at), f0),
        };
        let mut row = vec![text(label), killed_at, ci(label, RATIO)];
        row.extend(stats(
            label,
            &[("jobs_resubmitted", f0), ("availability", f3)],
        ));
        row.push(num(change(label, "no fault", RATIO), signed_pct1));
        rows.push(row);
        fig.cells.push(Cell::new(label, cfg, policy));
    }
    fig.table(
        "Dispatch x faults: kill the fastest machine under source-hash splitting",
        "scenario|killed at (s)|mean response ratio|resubmitted|availability|penalty".split('|'),
        rows,
    )
    .gate(
        "kill_crashes_the_machine",
        c(1.0),
        Op::Le,
        stat(kill, "crashes"),
    )
    .gate(
        "kill_costs_response_ratio",
        stat("no fault", RATIO),
        Op::Lt,
        stat(kill, RATIO),
    )
    .gate(
        "reoptimizing_cuts_the_kill_penalty",
        change(repair, "no fault", RATIO),
        Op::Lt,
        change(kill, "no fault", RATIO),
    )
}

/// Unreliable messaging: what a lossy fabric costs and what recovery
/// buys.
///
/// * loss sweep — ORR, DYNAMIC, DYNAMIC-SA and ReORR under uniform loss
///   `p ∈ {0, 0.1%, 1%, 5%}` on all three planes, with ack-based
///   retransmission (30 s timeout, ×2 backoff, 3 retries) armed;
/// * recovery ladder — ORR at 5% loss with no retries, retries, and
///   retries plus a hedged duplicate after 5 s of silence;
/// * load-plane blackouts — the second half of each of 16 equal cycles
///   over the measured span is dark on the update plane. Naive DYNAMIC
///   steers by its frozen snapshot; DYNAMIC-SA decays stale indices
///   (30 s confidence window) toward the optimized static prior.
fn fig_unreliable(scale: f64) -> Figure {
    let sa = PolicySpec::stale_aware_dynamic(30.0);
    let roster = [
        PolicySpec::orr(),
        PolicySpec::DynamicLeastLoad,
        sa,
        PolicySpec::reopt_orr(),
    ];
    let with = |channels: Option<ChannelSpec>| {
        let mut cfg = skewed_fleet();
        cfg.channels = channels;
        cfg
    };
    let retrying = |p: f64| ChannelSpec::uniform_loss(p).with_retry(RetrySpec::after(30.0));
    let lossless = |p: &PolicySpec| format!("loss 0 {}", p.label());
    let mut fig = Figure::new("fig_unreliable");
    let mut loss_rows = Vec::new();
    for p in [0.0, 0.001, 0.01, 0.05] {
        let loss = format!("loss {p}");
        for policy in roster {
            let l = format!("{loss} {}", policy.label());
            fig = fig.cell(&l, with((p > 0.0).then(|| retrying(p))), policy);
            let mut row = vec![text(&loss), text(policy.label()), ci(&l, RATIO)];
            row.extend(stats(
                &l,
                &[("jobs_lost", f1), ("msgs_lost", f0), ("retries", f0)],
            ));
            row.push(num(change(&l, lossless(&policy), RATIO), signed_pct2));
            loss_rows.push(row);
        }
    }
    let mut ladder_rows = Vec::new();
    for (label, channels) in [
        ("fire-and-forget", ChannelSpec::uniform_loss(0.05)),
        ("retry", retrying(0.05)),
        (
            "retry+hedge",
            retrying(0.05).with_hedge(HedgeSpec { delay: 5.0 }),
        ),
    ] {
        fig = fig.cell(label, with(Some(channels)), PolicySpec::orr());
        let mut row = vec![text(label), ci(label, RATIO)];
        row.extend(stats(
            label,
            &[("jobs_lost", f1), ("timeouts", f0), ("hedges_won", f0)],
        ));
        ladder_rows.push(row);
    }
    let mut blackout_rows = Vec::new();
    for policy in [PolicySpec::DynamicLeastLoad, sa, PolicySpec::orr()] {
        let l = format!("blackout {}", policy.label());
        fig = fig.cell(&l, with(Some(blackouts(scale))), policy);
        let mut row = vec![text(policy.label()), ci(&l, RATIO)];
        row.extend(stats(
            &l,
            &[("stale_decisions", f0), ("p95_response_ratio", f3)],
        ));
        blackout_rows.push(row);
    }
    fig.table(
        "Policy degradation under uniform message loss (retries armed)",
        "loss|policy|mean response ratio|jobs lost|msgs lost|retries|degradation".split('|'),
        loss_rows,
    )
    .table(
        "Recovery ladder at loss 0.05 (ORR)",
        "recovery|mean response ratio|jobs lost|timeouts|hedges won".split('|'),
        ladder_rows,
    )
    .table(
        "Load-plane blackouts (periodic partitions, 50% duty)",
        "policy|mean response ratio|stale decisions|p95 ratio".split('|'),
        blackout_rows,
    )
    .gate_all(
        "lossless_cells_lose_no_job",
        Op::Eq,
        roster.map(|p| (stat(lossless(&p), "jobs_lost"), c(0.0))),
    )
    .gate(
        "retry_loses_fewer_jobs_than_fire_and_forget",
        stat("retry", "jobs_lost"),
        Op::Lt,
        stat("fire-and-forget", "jobs_lost"),
    )
    .record(
        "sa_beats_naive_in_blackouts",
        stat("blackout DYNAMIC-SA", RATIO),
        Op::Lt,
        stat("blackout DYNAMIC", RATIO),
        "",
    )
}

/// Periodic blackout windows on the load plane: the second half of each
/// of 16 equal cycles spanning warm-up to horizon, in seconds of the
/// scaled run.
fn blackouts(scale: f64) -> ChannelSpec {
    let cfg = skewed_fleet().scaled(scale);
    let period = (cfg.horizon - cfg.warmup) / 16.0;
    let mut spec = ChannelSpec::reliable();
    spec.load.partitions = (0..16)
        .map(|k| {
            let start = cfg.warmup + k as f64 * period;
            (start + 0.5 * period, start + period)
        })
        .collect();
    spec
}

/// Malleable slowdown: heSRPT allocation versus dispatching. ORR and
/// DYNAMIC treat malleable jobs as rigid; HESRPT and HESRPT-STATIC hold
/// every job in the allocation tier, over malleable fractions
/// `{0.25, 0.5, 0.75, 1}` and power-law speedup exponents `{0.5, 0.8}`.
/// HESRPT-STATIC isolates how much of the gain is size ordering rather
/// than space sharing.
fn fig_malleable() -> Figure {
    let label = |p: f64, f: f64, policy: &PolicySpec| format!("p={p} f={f} {}", policy.label());
    let mut fig = Figure::new("fig_malleable");
    let mut rows = Vec::new();
    let (mut tier, mut invariant) = (Vec::new(), Vec::new());
    for p in [0.5, 0.8] {
        for f in [0.25, 0.5, 0.75, 1.0] {
            for policy in [
                PolicySpec::orr(),
                PolicySpec::DynamicLeastLoad,
                PolicySpec::Hesrpt,
                PolicySpec::HesrptStatic,
            ] {
                let l = label(p, f, &policy);
                let mut cfg = skewed_fleet();
                cfg.malleable = Some(MalleableSpec::power_law(f, p));
                fig = fig.cell(&l, cfg, policy);
                rows.push(vec![
                    num(c(p), plain),
                    num(c(f), plain),
                    text(policy.label()),
                    ci(&l, SLOWDOWN),
                    num(stat(&l, RATIO), f4),
                    num(stat(&l, "reallocations"), f0),
                ]);
                if policy.label().starts_with("HESRPT") {
                    tier.push(l);
                } else if (p, f) != (0.5, 0.25) {
                    // Dispatchers ignore the section: one slowdown for
                    // every fraction and exponent.
                    let first = stat(label(0.5, 0.25, &policy), SLOWDOWN);
                    invariant.push((stat(l, SLOWDOWN), first));
                }
            }
        }
    }
    let cells: Vec<String> = fig.cells.iter().map(|cell| cell.label.clone()).collect();
    fig.table(
        "Mean slowdown: allocation tier vs dispatching",
        "speedup exp|fraction|policy|mean slowdown|mean response ratio|reallocations".split('|'),
        rows,
    )
    .gate(
        "hesrpt_beats_orr",
        stat("p=0.5 f=1 HESRPT", SLOWDOWN),
        Op::Lt,
        stat("p=0.5 f=1 ORR", SLOWDOWN),
    )
    .gate_all(
        "tier_holds_malleable_jobs",
        Op::Lt,
        tier.iter().map(|l| positive(l, "malleable_jobs")),
    )
    .gate_all(
        "tier_reallocates",
        Op::Lt,
        tier.iter().map(|l| positive(l, "reallocations")),
    )
    .gate_all(
        "slowdowns_are_positive",
        Op::Lt,
        cells.iter().map(|l| positive(l, SLOWDOWN)),
    )
    .gate_all("dispatchers_ignore_the_section", Op::Eq, invariant)
}

/// Fleet sizes of the scale axis: four decades.
pub const FLEET_SIZES: [usize; 4] = [10, 100, 1000, 10_000];

/// Paper defaults over `n` servers in the speed-1 : 2 : 5 : 10 mix of
/// 50% / 30% / 10% / 10%, the horizon scaled inversely with `n`: the
/// arrival rate grows with the total speed, so every size processes a
/// comparable number of events.
fn scale_config(n: usize) -> ClusterConfig {
    let (slow, mid, fast) = (n / 2, 3 * n / 10, n / 10);
    let groups = [
        (slow, 1.0),
        (mid, 2.0),
        (fast, 5.0),
        (n - slow - mid - fast, 10.0),
    ]
    .map(|(count, speed)| FleetGroup { count, speed });
    let factor = (10.0 / n as f64).min(1.0);
    ClusterConfig::paper_default_fleet(&groups).scaled(factor)
}

/// The scale axis: ORR, DYNAMIC, POD(2), POD(2)-HET and JIQ across
/// `N ∈ {10, …, 10,000}`, with each point's simulated events per busy
/// second; then POD(2)-HET and JIQ under crash/repair faults, a 4-way
/// dispatch tier and the parallel engine (one replication each), showing
/// the scalable policies compose with the failure and parallelism stack.
/// The decision microbench runs first.
fn fig_scale(scale: f64) -> Figure {
    let pod = |het_aware| PolicySpec::PowerOfD { d: 2, het_aware };
    let mut fig = Figure::new("fig_scale");
    fig.extra = Some(decision_bench);
    let mut rows = Vec::new();
    for n in FLEET_SIZES {
        let roster = [
            PolicySpec::orr(),
            PolicySpec::DynamicLeastLoad,
            pod(false),
            pod(true),
        ];
        for policy in roster.into_iter().chain([PolicySpec::Jiq]) {
            let l = format!("N={n} {}", policy.label());
            fig = fig.cell(&l, scale_config(n), policy);
            rows.push(vec![
                num(c(n as f64), plain),
                text(policy.label()),
                ci(&l, RATIO),
                num(stat(&l, "events_per_sec"), f0),
            ]);
        }
    }
    let (mut robust_rows, mut counted) = (Vec::new(), Vec::new());
    for n in FLEET_SIZES {
        let mut cfg = scale_config(n);
        // A handful of crash/repair cycles per machine in the scaled run.
        let horizon = cfg.horizon * scale;
        cfg.faults = Some(FaultSpec::exponential(horizon / 4.0, horizon / 40.0));
        cfg.dispatch.dispatchers = 4;
        for policy in [pod(true), PolicySpec::Jiq] {
            let l = format!("robust N={n} {}", policy.label());
            fig.cells.push(Cell {
                reps: Some(1),
                sim_threads: 2,
                ..Cell::new(&l, cfg.clone(), policy)
            });
            robust_rows.push(vec![
                num(c(n as f64), plain),
                text(policy.label()),
                num(stat(&l, RATIO), f3),
                num(stat(&l, "jobs_counted"), plain),
                num(stat(&l, "crashes"), |x| (x > 0.0).to_string()),
            ]);
            counted.push(positive(l, "jobs_counted"));
        }
    }
    fig.table(
        "Whole-sim sweep: response ratio and events/sec vs N",
        "N|policy|mean response ratio|events/s".split('|'),
        rows,
    )
    .table(
        "Robustness: POD(2)-HET and JIQ under faults + 4 shards + parallel engine",
        "N|policy|mean response ratio|jobs|crashes".split('|'),
        robust_rows,
    )
    .gate_all("robust_runs_count_jobs", Op::Lt, counted)
}

/// Nanoseconds per `choose()` of `policy` in a tight loop with a
/// realistic update mix: each decision joins the chosen queue, and one
/// believed-load update per eight decisions rotates across the fleet.
/// Queue changes go through a [`FleetState`] the way the simulation
/// keeps it, so JSQ-FULL pays for its true-load index here. The checksum
/// keeps the optimizer honest.
fn ns_per_decision(mut policy: Box<dyn Policy>, cfg: &ClusterConfig, iters: u64) -> f64 {
    let n = cfg.speeds.len();
    let mut fleet = FleetState::new(n, policy.wants_true_load_index());
    fleet.seed_keys(&cfg.speeds);
    let mut rng = Rng64::from_seed(0xBEEF);
    let mut checksum = 0usize;
    let mut step = |policy: &mut Box<dyn Policy>, fleet: &mut FleetState, i: u64| {
        let ctx = DispatchCtx {
            now: i as f64,
            job_size: 1.0,
            queue_lens: &fleet.qlens,
            speeds: &cfg.speeds,
            true_load_index: fleet.index.as_ref(),
        };
        let chosen = policy.choose(&ctx, &mut rng);
        fleet.sync(chosen, fleet.qlens[chosen] + 1, cfg.speeds[chosen]);
        chosen
    };
    // Warm the caches and any lazy per-policy state before timing.
    for i in 0..iters / 10 + 1 {
        checksum ^= step(&mut policy, &mut fleet, i);
    }
    let start = Instant::now();
    for i in 0..iters {
        if i % 8 == 0 {
            let server = (i as usize * 31) % n;
            let queue_len = (i % 5) as usize;
            fleet.sync(server, queue_len, cfg.speeds[server]);
            policy.on_load_update(server, queue_len, i as f64);
        }
        checksum ^= step(&mut policy, &mut fleet, i);
    }
    let elapsed = start.elapsed();
    std::hint::black_box(checksum);
    elapsed.as_nanos() as f64 / iters as f64
}

/// `fig_scale`'s decision microbench, measured when the figure runs: ns
/// per `choose()` for DYNAMIC and JSQ-FULL against their scans, and for
/// POD(2)-HET and JIQ, at every fleet size. DYNAMIC must be at least 10×
/// faster than its scan at N = 10,000 and grow ~log N: N = 1,000 within
/// 16× of N = 10, where the scan grows ~100×.
fn decision_bench() -> Figure {
    let mut rows = Vec::new();
    for n in FLEET_SIZES {
        let cfg = scale_config(n);
        let built = |spec: PolicySpec| spec.build(&cfg).expect("microbench policy builds");
        let roster: [Box<dyn Policy>; 6] = [
            built(PolicySpec::DynamicLeastLoad),
            Box::new(LeastLoadScan::new(&cfg.speeds)),
            built(PolicySpec::JsqFull),
            Box::new(JsqScan::new()),
            built(PolicySpec::PowerOfD {
                d: 2,
                het_aware: true,
            }),
            built(PolicySpec::Jiq),
        ];
        // The scan's cost grows with N; shrink the iteration count so
        // the N = 10,000 row still finishes in under a second.
        let iters = (2_000_000 / n as u64).max(20_000);
        for policy in roster {
            let name = policy.name();
            rows.push((n, name, ns_per_decision(policy, &cfg, iters)));
        }
    }
    let ns = |n: usize, policy: &str| {
        let row = rows.iter().find(|r| r.0 == n && r.1 == policy);
        row.expect("row present").2
    };
    let speedup = ns(10_000, "DYNAMIC-SCAN") / ns(10_000, "DYNAMIC");
    let (at10, at1000) = (ns(10, "DYNAMIC"), ns(1000, "DYNAMIC"));
    let table = rows
        .iter()
        .map(|(n, policy, ns)| vec![num(c(*n as f64), plain), text(policy), num(c(*ns), f1)]);
    Figure::new("fig_scale")
        .table(
            "Dispatch-decision microbench (ns per choose())",
            "N|policy|ns/decision".split('|'),
            table.collect(),
        )
        .gate(
            "dynamic_10x_faster_than_its_scan_at_10000",
            c(10.0),
            Op::Le,
            c(speedup),
        )
        .gate("dynamic_grows_log_n", c(at1000), Op::Le, c(16.0 * at10))
}
