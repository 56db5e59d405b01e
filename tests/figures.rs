//! The reproduction's evidence as goldens: Table I, Table II, Fig. 1,
//! Fig. 9, the Key Observations, the Pareto claim, the simulator
//! validation, the ablations and four worked scenarios. Each artefact is a
//! renderer into a `String`, and its test compares the rendering byte for
//! byte with `tests/golden/<name>.txt`.
//!
//! On a mismatch the test writes the fresh rendering to
//! `$CARGO_TARGET_TMPDIR/figures/<name>.txt` and fails with the first
//! differing line and the `cp` command that adopts it. Adopt a rendering
//! only for an intended change, and say why in the commit.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use drmap::dram::trace::format_command_trace;
use drmap::prelude::*;

/// `writeln!` into a `String`, which cannot fail.
macro_rules! outln {
    ($o:expr) => {
        $o.push('\n')
    };
    ($o:expr, $($fmt:tt)*) => {
        writeln!($o, $($fmt)*).expect("writing to a String cannot fail")
    };
}

/// `write!` into a `String`, which cannot fail.
macro_rules! out {
    ($o:expr, $($fmt:tt)*) => {
        write!($o, $($fmt)*).expect("writing to a String cannot fail")
    };
}

/// Declares the renderers: the name list the completeness test reads,
/// and one golden test per renderer.
macro_rules! figures {
    ($($name:ident),* $(,)?) => {
        const FIGURES: &[(&str, fn(&mut String))] = &[$((stringify!($name), $name)),*];

        mod golden {
            $(#[test]
            fn $name() {
                super::check(stringify!($name), super::$name);
            })*
        }
    };
}

figures!(
    table1_mappings,
    table2_config,
    fig1_access_profile,
    fig9_edp_sweep,
    key_observations,
    pareto_front,
    validation_report,
    extension_networks,
    ablation_ddr4,
    ablation_narrowing,
    ablation_precision,
    ablation_refresh,
    ablation_row_policy,
    ablation_scheduler,
    ablation_subarrays,
    alexnet_dse,
    breakdown_analysis,
    custom_network,
    trace_inspect,
);

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Render `name` and compare it with its golden.
fn check(name: &str, render: fn(&mut String)) {
    let mut fresh = String::new();
    render(&mut fresh);
    let golden_path = golden_dir().join(format!("{name}.txt"));
    let golden = fs::read_to_string(&golden_path).unwrap_or_default();
    if fresh == golden {
        return;
    }
    let fresh_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("figures");
    fs::create_dir_all(&fresh_dir).expect("create the fresh-rendering directory");
    let fresh_path = fresh_dir.join(format!("{name}.txt"));
    fs::write(&fresh_path, &fresh).expect("write the fresh rendering");
    let (mut want, mut got) = (golden.split_inclusive('\n'), fresh.split_inclusive('\n'));
    let line = (1..)
        .find(|_| want.next() != got.next())
        .expect("differing texts differ on some line");
    let nth = |text: &str| text.split_inclusive('\n').nth(line - 1).map(str::to_owned);
    panic!(
        "{name} differs from its golden at line {line}\n  golden: {:?}\n  fresh:  {:?}\n\
         adopt the fresh rendering with:\n  cp {} {}",
        nth(&golden),
        nth(&fresh),
        fresh_path.display(),
        golden_path.display(),
    );
}

// ---------------------------------------------------------------------------
// Shared engines and arithmetic
// ---------------------------------------------------------------------------

/// `geometry` with `timing` and the Micron 2 Gb x8 currents.
fn device(geometry: Geometry, timing: TimingParams) -> Device {
    Device::new(geometry, timing, EnergyParams::micron_2gb_x8())
        .expect("a valid device configuration")
}

/// A DSE engine on `device` with the default configuration (Table I
/// mappings, all four schemes, EDP).
fn engine(device: Device, acc: AcceleratorConfig, arch: DramArch) -> DseEngine {
    let profiler = Profiler::new(device).expect("a device the profiler can sweep");
    let model = EdpModel::new(*device.geometry(), profiler.cost_table(arch), acc);
    DseEngine::new(model, DseConfig::default()).expect("a profiled table")
}

/// The Table II engines, one per architecture in [`DramArch::ALL`] order,
/// built once per test process.
fn engines() -> &'static [(DramArch, DseEngine)] {
    static ENGINES: OnceLock<Vec<(DramArch, DseEngine)>> = OnceLock::new();
    ENGINES.get_or_init(|| {
        DramArch::ALL
            .iter()
            .map(|&arch| {
                let acc = AcceleratorConfig::table_ii();
                (arch, engine(Device::table_ii(), acc, arch))
            })
            .collect()
    })
}

/// EDP of one Fig. 9 cell: the minimum over all feasible tilings.
fn best_edp(engine: &DseEngine, layer: &Layer, scheme: ReuseScheme, m: &MappingPolicy) -> f64 {
    engine
        .best_over_tilings(layer, scheme, m)
        .expect("the layer has a feasible tiling")
        .estimate
        .edp()
}

/// Per-mapping network EDP for one scheme, in Table I order.
fn network_totals(
    engine: &DseEngine,
    network: &Network,
    scheme: ReuseScheme,
) -> Vec<(MappingPolicy, f64)> {
    MappingPolicy::table_i()
        .into_iter()
        .map(|m| {
            let edps = network
                .layers()
                .iter()
                .map(|l| best_edp(engine, l, scheme, &m));
            (m, edps.sum())
        })
        .collect()
}

/// The paper's "improves EDP by X%": positive when `better < worse`.
fn improvement_pct(better: f64, worse: f64) -> f64 {
    if worse == 0.0 {
        0.0
    } else {
        (1.0 - better / worse) * 100.0
    }
}

/// The largest network EDP in `totals`.
fn worst(totals: &[(MappingPolicy, f64)]) -> f64 {
    totals.iter().map(|t| t.1).fold(0.0, f64::max)
}

/// The mapping with the smallest network EDP.
fn lowest(totals: &[(MappingPolicy, f64)]) -> &(MappingPolicy, f64) {
    let min = totals.iter().min_by(|a, b| a.1.total_cmp(&b.1));
    min.expect("Table I is not empty")
}

/// A policy's loop order, inner-most first.
fn order(policy: &MappingPolicy, sep: &str) -> String {
    let names: Vec<&str> = policy.order().iter().map(|l| l.name()).collect();
    names.join(sep)
}

/// The Table II simulator under `config`.
fn simulator(config: ControllerConfig) -> DramSimulator {
    DramSimulator::on(&Device::table_ii(), config).expect("the Table II device serves every arch")
}

// ---------------------------------------------------------------------------
// The paper's artefacts
// ---------------------------------------------------------------------------

/// Table I: the six mapping policies, and the 18 permutations the
/// row-outermost narrowing rule excludes.
fn table1_mappings(o: &mut String) {
    o.push_str(
        "# Table I — DRAM mapping policies for the DSE\n\
         mapping\tinner-most to outer-most loops\n",
    );
    for policy in MappingPolicy::table_i() {
        outln!(o, "{}\t{}", policy.name(), order(&policy, ", "));
    }
    o.push_str(
        "\n\
         # Excluded permutations (row not outermost — most expensive transitions)\n",
    );
    for policy in MappingPolicy::all_permutations() {
        if policy.index() == 0 {
            outln!(o, "excluded\t{}", order(&policy, ", "));
        }
    }
}

/// Table II: the accelerator and DRAM configuration.
fn table2_config(o: &mut String) {
    let acc = AcceleratorConfig::table_ii();
    let ddr3 = Geometry::ddr3_2gb_x8();
    let salp = Geometry::salp_2gb_x8();
    let t = TimingParams::ddr3_1600k();
    let mc = ControllerConfig::new(DramArch::Ddr3);
    let mbit = |g: Geometry| g.capacity_bytes() * 8 / (1024 * 1024);

    outln!(o, "# Table II — configuration of the CNN accelerator");
    outln!(
        o,
        "CNN Processing Array : {}x{} MACs",
        acc.mac_rows,
        acc.mac_cols
    );
    outln!(
        o,
        "On-chip Buffers      : iB {}KB, wB {}KB, oB {}KB ({})",
        acc.ifms_buffer / 1024,
        acc.wghs_buffer / 1024,
        acc.ofms_buffer / 1024,
        acc.precision
    );
    outln!(
        o,
        "Memory Controller    : policy = {:?} row, scheduler = {:?}",
        mc.row_policy,
        mc.scheduler
    );
    outln!(o, "DDR3-1600            : {ddr3} ({} Mb/chip)", mbit(ddr3));
    outln!(o, "SALP                 : {salp} ({} Mb/chip)", mbit(salp));
    outln!(
        o,
        "Timing (cycles)      : CL={} tRCD={} tRP={} tRAS={} tRC={} tCK={}ns",
        t.cl,
        t.t_rcd,
        t.t_rp,
        t.t_ras,
        t.t_rc,
        t.t_ck_ns
    );
}

/// Fig. 1: cycles and energy per access for each access condition on
/// every architecture, normalised to a DDR3 row-buffer hit.
fn fig1_access_profile(o: &mut String) {
    let profiler = Profiler::table_ii().expect("the Table II device is valid");
    let hit = AccessCondition::RowBufferHit;
    let base = profiler.fig1_condition(DramArch::Ddr3, hit, RequestKind::Read);

    o.push_str(
        "# Fig. 1 — per-access latency and energy by access condition\n\
         # condition, architecture, cycles/access, energy [nJ/access]\n\
         condition\tarch\tcycles\tenergy_nj\tnorm_cycles\n",
    );
    for kind in [RequestKind::Read, RequestKind::Write] {
        if kind == RequestKind::Write {
            o.push_str(
                "\n\
                 # Write-access profile (same conditions, WR bursts)\n",
            );
        }
        for condition in AccessCondition::ALL {
            for arch in DramArch::ALL {
                let cost = profiler.fig1_condition(arch, condition, kind);
                out!(
                    o,
                    "{}\t{}\t{:.2}\t{:.3}\t",
                    condition.label(),
                    arch.label(),
                    cost.cycles,
                    cost.energy * 1e9
                );
                if kind == RequestKind::Read {
                    out!(o, "{:.2}", cost.cycles / base.cycles);
                }
                outln!(o);
            }
        }
    }
}

/// Fig. 9(a)–(d): AlexNet EDP per layer and in total, for every Table I
/// mapping and architecture, under each scheduling scheme.
fn fig9_edp_sweep(o: &mut String) {
    let network = Network::alexnet();
    let mappings = MappingPolicy::table_i();
    for (scheme, subplot) in ReuseScheme::ALL
        .into_iter()
        .zip(["(a)", "(b)", "(c)", "(d)"])
    {
        outln!(
            o,
            "# Fig. 9{subplot} — EDP [J*s] on AlexNet, {scheme} scheduling"
        );
        out!(o, "layer\tarch");
        for mapping in &mappings {
            out!(o, "\t{}", mapping.name());
        }
        outln!(o);

        let mut totals = vec![[0.0f64; 6]; engines().len()];
        for layer in network.layers() {
            for ((arch, engine), total) in engines().iter().zip(&mut totals) {
                out!(o, "{}\t{}", layer.name, arch.label());
                for (mapping, sum) in mappings.iter().zip(total) {
                    let edp = best_edp(engine, layer, scheme, mapping);
                    *sum += edp;
                    out!(o, "\t{edp:.4e}");
                }
                outln!(o);
            }
        }
        for ((arch, _), total) in engines().iter().zip(&totals) {
            out!(o, "Total\t{}", arch.label());
            for edp in total {
                out!(o, "\t{edp:.4e}");
            }
            outln!(o);
        }
        outln!(o);
    }
}

/// The key result (DRMap's improvement over the worst mapping) and Key
/// Observations 1–4, on AlexNet totals.
fn key_observations(o: &mut String) {
    let network = Network::alexnet();
    // Per engine, the Table I totals under each scheme of `ReuseScheme::ALL`.
    let totals: Vec<[Vec<(MappingPolicy, f64)>; 4]> = engines()
        .iter()
        .map(|(_, e)| ReuseScheme::ALL.map(|scheme| network_totals(e, &network, scheme)))
        .collect();
    let adaptive = |ai: usize| &totals[ai][3];

    o.push_str(
        "# Key result — DRMap EDP improvement over other mappings (AlexNet totals)\n\
         arch\tscheme\tworst_mapping\timprovement_%\n",
    );
    let mut max_improvement = Vec::new();
    for ((arch, _), per_scheme) in engines().iter().zip(&totals) {
        let mut max = 0.0f64;
        for (scheme, totals) in ReuseScheme::ALL.iter().zip(per_scheme) {
            let (worst_mapping, worst_edp) = totals
                .iter()
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .expect("Table I is not empty");
            let imp = improvement_pct(totals[2].1, *worst_edp);
            max = max.max(imp);
            let (arch, scheme, name) = (arch.label(), scheme.label(), worst_mapping.name());
            outln!(o, "{arch}\t{scheme}\t{name}\t{imp:.1}");
        }
        max_improvement.push(max);
    }
    o.push_str(
        "\n\
         # Maximum improvement per architecture (paper: 96/94/91/80 %)\n",
    );
    for ((arch, _), imp) in engines().iter().zip(&max_improvement) {
        outln!(o, "{}\t{imp:.1}", arch.label());
    }

    o.push_str(
        "\n\
         # Key Observations 1-3 — adaptive-reuse totals per mapping\n\
         arch\tmapping\tEDP_Js\n",
    );
    for (ai, (arch, _)) in engines().iter().enumerate() {
        for (m, edp) in adaptive(ai) {
            outln!(o, "{}\t{}\t{edp:.4e}", arch.label(), m.name());
        }
        let best = lowest(adaptive(ai)).0.name();
        outln!(o, "#   -> lowest on {arch}: {best} (DRMap is Mapping-3)");
    }

    o.push_str(
        "\n\
         # Key Observation 4 — EDP improvement of SALP archs vs DDR3 (adaptive-reuse)\n\
         mapping\tSALP-1_%\tSALP-2_%\tSALP-MASA_%\n",
    );
    for (mi, (mapping, ddr3)) in adaptive(0).iter().enumerate() {
        out!(o, "{}", mapping.name());
        for ai in 1..totals.len() {
            out!(o, "\t{:.2}", improvement_pct(adaptive(ai)[mi].1, *ddr3));
        }
        outln!(o);
    }
}

/// The abstract's Pareto-optimal design choices: the (energy, latency)
/// front of AlexNet CONV2 on each architecture.
fn pareto_front(o: &mut String) {
    let network = Network::alexnet();
    let conv2 = &network.layers()[1];
    for (arch, engine) in engines() {
        let config = DseConfig {
            keep_points: true,
            ..DseConfig::default()
        };
        let engine = DseEngine::new(engine.model().clone(), config).expect("a profiled table");
        let result = engine.explore_layer(conv2).expect("CONV2 explores");
        outln!(
            o,
            "# Pareto front — AlexNet {} on {arch} ({} points evaluated)",
            conv2.name,
            result.evaluations
        );
        outln!(o, "energy_J\tlatency_s\tEDP_Js\tconfiguration");
        for p in &result.pareto {
            let e = &p.estimate;
            let (energy, seconds, edp) = (e.energy, e.seconds(), e.edp());
            outln!(o, "{energy:.4e}\t{seconds:.4e}\t{edp:.4e}\t{}", p.label);
        }
        let drmap = result.pareto.iter().filter(|p| p.label.contains("DRMap"));
        outln!(
            o,
            "#   front size {} of which DRMap configurations: {}",
            result.pareto.len(),
            drmap.count()
        );
        outln!(o);
    }
}

/// The DSE winners of every AlexNet layer replayed through the
/// command-level simulator: analytical / simulated cycles and energy.
fn validation_report(o: &mut String) {
    let network = Network::alexnet();
    o.push_str(
        "# Simulator validation of DSE winners (AlexNet)\n\
         arch\tlayer\tmapping\tcycle_ratio\tenergy_ratio\tsim_hit_rate\n",
    );
    for (arch, engine) in engines() {
        let validator = Validator::table_ii(*arch).expect("the Table II device is valid");
        for layer in network.layers() {
            let best = engine.explore_layer(layer).expect("layer explores").best;
            let report = validator
                .validate(engine.model(), layer, &best)
                .expect("the winner replays");
            outln!(
                o,
                "{}\t{}\t{}\t{:.2}\t{:.2}\t{:.2}",
                arch.label(),
                layer.name,
                best.mapping.name(),
                report.cycle_ratio(),
                report.energy_ratio(),
                report.hit_rate
            );
        }
    }
    outln!(
        o,
        "# ratio = analytical / simulated; 1.00 is perfect agreement"
    );
}

/// Sec. I's generality claim beyond AlexNet: DRMap against the best and
/// worst alternative mapping on four more networks.
fn extension_networks(o: &mut String) {
    o.push_str(
        "# Extension — DRMap vs best/worst alternative on other networks (adaptive)\n\
         network\tarch\tdrmap_EDP_Js\tbest_other\tworst_other\timprovement_%\n",
    );
    for network in [
        Network::tiny(),
        Network::alexnet_grouped(),
        Network::resnet18(),
        Network::vgg16(),
    ] {
        for (arch, engine) in engines() {
            let mut totals = network_totals(engine, &network, ReuseScheme::AdaptiveReuse);
            let (_, drmap) = totals.remove(2);
            let best_other = totals.iter().map(|t| t.1).fold(f64::INFINITY, f64::min);
            let worst_other = worst(&totals);
            outln!(
                o,
                "{}\t{}\t{drmap:.4e}\t{best_other:.4e}\t{worst_other:.4e}\t{:.1}",
                network.name(),
                arch.label(),
                improvement_pct(drmap, worst_other)
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Ablations
// ---------------------------------------------------------------------------

/// A7, Sec. I's commodity-DRAM generality: the key result on TinyNet with
/// DDR4-2400 and LPDDR3-1600 timing in place of DDR3-1600.
fn ablation_ddr4(o: &mut String) {
    let network = Network::tiny();
    let generations = [
        ("DDR3-1600", TimingParams::ddr3_1600k()),
        ("DDR4-2400", TimingParams::ddr4_2400r()),
        ("LPDDR3-1600", TimingParams::lpddr3_1600()),
    ];
    o.push_str(
        "# Ablation A7 — DRMap across commodity-DRAM generations (TinyNet, adaptive)\n\
         generation\tbest_mapping\tdrmap_EDP_Js\tworst_EDP_Js\timprovement_%\n",
    );
    for (name, timing) in generations {
        let acc = AcceleratorConfig::table_ii();
        let salp = device(Geometry::salp_2gb_x8(), timing);
        let engine = engine(salp, acc, DramArch::Ddr3);
        let totals = network_totals(&engine, &network, ReuseScheme::AdaptiveReuse);
        let (drmap, worst) = (totals[2].1, worst(&totals));
        outln!(
            o,
            "{name}\t{}\t{drmap:.4e}\t{worst:.4e}\t{:.1}",
            lowest(&totals).0.name(),
            improvement_pct(drmap, worst)
        );
    }
}

/// A8, Sec. III-B's narrowing: all 24 loop-order permutations and the
/// commodity default on AlexNet CONV3, against DRMap.
fn ablation_narrowing(o: &mut String) {
    let network = Network::alexnet();
    let conv3 = &network.layers()[2];
    let adaptive = ReuseScheme::AdaptiveReuse;
    let mut policies = MappingPolicy::all_permutations();
    policies.push(MappingPolicy::commodity_default());
    let table_i = |index: usize| (index > 0).then(|| format!("Mapping-{index}"));

    o.push_str(
        "# Ablation A8 — all 24 permutations + commodity default (AlexNet CONV3, adaptive)\n\
         arch\torder\ttable_i\tEDP_Js\tvs_drmap\n",
    );
    for (arch, engine) in engines() {
        let drmap = best_edp(engine, conv3, adaptive, &MappingPolicy::drmap());
        let mut rows: Vec<(f64, String, usize)> = policies
            .iter()
            .map(|p| {
                (
                    best_edp(engine, conv3, adaptive, p),
                    order(p, ">"),
                    p.index(),
                )
            })
            .collect();
        rows.sort_by(|a, b| a.0.total_cmp(&b.0));
        for (edp, order, index) in &rows {
            let mapping = table_i(*index).unwrap_or_else(|| "-".to_owned());
            let ratio = edp / drmap;
            outln!(
                o,
                "{}\t{order}\t{mapping}\t{edp:.4e}\t{ratio:.2}x",
                arch.label()
            );
        }
        let (edp, order, index) = &rows[0];
        outln!(
            o,
            "#   best on {arch}: {order} ({}) — narrowing lossless: {}",
            table_i(*index).unwrap_or_else(|| "outside Table I".to_owned()),
            *edp >= drmap * 0.999
        );
        outln!(o);
    }
}

/// A4: the Table I ranking on AlexNet (DDR3) at 8- and 16-bit precision.
fn ablation_precision(o: &mut String) {
    let network = Network::alexnet();
    o.push_str(
        "# Ablation A4 — AlexNet adaptive-reuse EDP totals per precision (DDR3)\n\
         precision\tmapping\tEDP_Js\trank\n",
    );
    for precision in [Precision::Int8, Precision::Int16] {
        let acc = AcceleratorConfig {
            precision,
            ..AcceleratorConfig::table_ii()
        };
        let engine = engine(Device::table_ii(), acc, DramArch::Ddr3);
        let totals = network_totals(&engine, &network, ReuseScheme::AdaptiveReuse);
        for (mapping, edp) in &totals {
            let rank = 1 + totals.iter().filter(|t| t.1 < *edp).count();
            outln!(o, "{precision}\t{}\t{edp:.4e}\t{rank}", mapping.name());
        }
    }
}

/// A3: refresh on and off on a long column-sequential DDR3 stream.
fn ablation_refresh(o: &mut String) {
    let mut trace = TraceBuilder::new();
    for row in 0..64 {
        trace = trace.sequential_columns(0, 0, row, 128);
    }
    let trace = trace.build();
    o.push_str(
        "# Ablation A3 — refresh on/off (DDR3, long column-sequential stream)\n\
         refresh\tmakespan_cycles\tcycles/access\tenergy_nJ/access\n",
    );
    for refresh_enabled in [false, true] {
        let config = ControllerConfig {
            refresh_enabled,
            ..ControllerConfig::new(DramArch::Ddr3)
        };
        let stats = simulator(config).run(&trace, DriveMode::Spaced(4));
        outln!(
            o,
            "{refresh_enabled}\t{}\t{:.2}\t{:.3}",
            stats.makespan_cycles,
            stats.cycles_per_access(),
            stats.energy_per_access() * 1e9
        );
    }
}

/// A1: open, closed and timeout row policies on a column-sequential
/// DDR3 stream.
fn ablation_row_policy(o: &mut String) {
    let trace = TraceBuilder::new().sequential_columns(0, 0, 0, 128).build();
    o.push_str(
        "# Ablation A1 — open vs closed row policy (DDR3, column-sequential stream)\n\
         policy\tcycles/access\tenergy_nJ/access\thit_rate\n",
    );
    for row_policy in [RowPolicy::Open, RowPolicy::Closed, RowPolicy::Timeout(64)] {
        let config = ControllerConfig {
            row_policy,
            ..ControllerConfig::new(DramArch::Ddr3)
        };
        let stats = simulator(config).run(&trace, DriveMode::Streamed);
        outln!(
            o,
            "{row_policy:?}\t{:.2}\t{:.3}\t{:.2}",
            stats.cycles_per_access(),
            stats.energy_per_access() * 1e9,
            stats.hit_rate()
        );
    }
}

/// A2: FCFS against FR-FCFS on a stream that interleaves row conflicts
/// with row hits.
fn ablation_scheduler(o: &mut String) {
    let trace: Vec<Request> = (0..64)
        .map(|i| {
            Request::read(PhysicalAddress {
                row: if i % 4 == 3 { 1 + (i / 4) % 8 } else { 0 },
                column: i % 128,
                ..PhysicalAddress::default()
            })
        })
        .collect();
    o.push_str(
        "# Ablation A2 — FCFS vs FR-FCFS on a hit/conflict-interleaved stream (DDR3)\n\
         scheduler\tmakespan_cycles\tcycles/access\thit_rate\n",
    );
    for scheduler in [SchedulerKind::Fcfs, SchedulerKind::FrFcfs] {
        let config = ControllerConfig {
            scheduler,
            ..ControllerConfig::new(DramArch::Ddr3)
        };
        let stats = simulator(config).run(&trace, DriveMode::Streamed);
        outln!(
            o,
            "{scheduler:?}\t{}\t{:.2}\t{:.2}",
            stats.makespan_cycles,
            stats.cycles_per_access(),
            stats.hit_rate()
        );
    }
}

/// A5: DRMap against the worst mapping on SALP-MASA as the subarrays per
/// bank go from 2 to 32 (TinyNet).
fn ablation_subarrays(o: &mut String) {
    let network = Network::tiny();
    o.push_str(
        "# Ablation A5 — subarrays-per-bank sweep (TinyNet, SALP-MASA, adaptive)\n\
         subarrays\tdrmap_EDP_Js\tworst_EDP_Js\timprovement_%\n",
    );
    for subarrays in [2usize, 4, 8, 16, 32] {
        let geometry = Geometry {
            subarrays,
            ..Geometry::ddr3_2gb_x8()
        };
        let acc = AcceleratorConfig::table_ii();
        let engine = engine(
            device(geometry, TimingParams::ddr3_1600k()),
            acc,
            DramArch::SalpMasa,
        );
        let totals = network_totals(&engine, &network, ReuseScheme::AdaptiveReuse);
        let (drmap, worst) = (totals[2].1, worst(&totals));
        let imp = improvement_pct(drmap, worst);
        outln!(o, "{subarrays}\t{drmap:.4e}\t{worst:.4e}\t{imp:.1}");
    }
}

// ---------------------------------------------------------------------------
// Worked scenarios
// ---------------------------------------------------------------------------

/// Algorithm 1 on every AlexNet layer for every architecture: the winning
/// configuration per layer and the network total.
fn alexnet_dse(o: &mut String) {
    let network = Network::alexnet();
    let acc = AcceleratorConfig::table_ii();
    outln!(o, "network: {network}, accelerator: {acc}");
    outln!(o);
    for (arch, engine) in engines() {
        let result = engine.explore_network(&network).expect("AlexNet explores");
        outln!(o, "=== {arch} ===");
        for layer in &result.layers {
            outln!(
                o,
                "{:<6} best={:<28} {:<14} {} EDP={:.4e} J*s",
                layer.layer_name,
                layer.best.mapping.name(),
                layer.best.scheme.to_string(),
                layer.best.tiling,
                layer.best.estimate.edp()
            );
        }
        outln!(
            o,
            "Total  EDP={:.4e} J*s  energy={:.4e} J  latency={:.4e} s",
            result.total_edp(),
            result.total.energy,
            result.total.seconds()
        );
        let wins = result.layers.iter().filter(|l| l.best.mapping.is_drmap());
        outln!(
            o,
            "DRMap (Mapping-3) is the per-layer winner on {}/{} layers",
            wins.count(),
            result.layers.len()
        );
        outln!(o);
    }
}

/// Where the DRAM energy of each AlexNet winner on SALP-2 goes, and the
/// scheme adaptive-reuse resolves to per layer (Sec. II-A).
fn breakdown_analysis(o: &mut String) {
    let network = Network::alexnet();
    let (_, engine) = &engines()[2];
    let model = engine.model();
    outln!(
        o,
        "{:<7} {:<12} {:>12} {:>12} {:>12} {:>12}  dominant",
        "layer",
        "resolved",
        "ifms [uJ]",
        "wghs [uJ]",
        "ofms-rd [uJ]",
        "ofms-wr [uJ]"
    );
    for layer in network.layers() {
        let best = engine.explore_layer(layer).expect("layer explores").best;
        let b = model.layer_breakdown(layer, &best.tiling, best.scheme, &best.mapping);
        outln!(
            o,
            "{:<7} {:<12} {:>12.2} {:>12.2} {:>12.2} {:>12.2}  {}",
            layer.name,
            b.resolved_scheme.label(),
            b.ifms.energy * 1e6,
            b.wghs.energy * 1e6,
            b.ofms_reads.energy * 1e6,
            b.ofms_writes.energy * 1e6,
            b.dominant(),
        );
    }
    o.push_str(
        "\n\
         Conv layers are activation-dominated; FC layers are weight-dominated —\n\
         which is why adaptive-reuse switches its priority across the network.\n",
    );
}

/// A user-defined edge network on a 2-channel, 16-subarray device with a
/// larger accelerator than Table II.
fn custom_network(o: &mut String) {
    let network = Network::new(
        "EdgeNet",
        vec![
            Layer::conv("STEM", 112, 112, 32, 3, 3, 3, 2),
            Layer::conv("STAGE1", 56, 56, 64, 32, 3, 3, 2),
            Layer::conv("STAGE2", 28, 28, 128, 64, 3, 3, 2),
            Layer::conv("HEAD", 14, 14, 256, 128, 1, 1, 2),
            Layer::fully_connected("CLS", 256 * 7 * 7, 100),
        ],
    )
    .expect("a valid network");
    let geometry = Geometry {
        channels: 2,
        subarrays: 16,
        ..Geometry::ddr3_2gb_x8()
    };
    let edge = device(geometry, TimingParams::ddr3_1600k());
    let acc = AcceleratorConfig {
        ifms_buffer: 128 * 1024,
        wghs_buffer: 128 * 1024,
        ofms_buffer: 64 * 1024,
        precision: Precision::Int8,
        ..AcceleratorConfig::table_ii()
    };

    outln!(o, "network : {network}");
    outln!(o, "dram    : {geometry}");
    outln!(o, "accel   : {acc}");
    outln!(o);
    for arch in [DramArch::Ddr3, DramArch::SalpMasa] {
        let engine = engine(edge, acc, arch);
        let result = engine.explore_network(&network).expect("EdgeNet explores");
        outln!(o, "=== {arch} ===");
        for layer in &result.layers {
            outln!(
                o,
                "{:<7} {:<28} {:<14} EDP={:.4e} J*s",
                layer.layer_name,
                layer.best.mapping.name(),
                layer.best.scheme.to_string(),
                layer.best.estimate.edp()
            );
        }
        outln!(o, "Total EDP = {:.4e} J*s", result.total_edp());
        outln!(o);
    }
}

/// Fig. 8's tool flow: one 256-burst tile mapped by DRMap and by
/// Mapping-2, replayed on SALP-MASA with command recording on.
fn trace_inspect(o: &mut String) {
    let units = 256;
    for policy in [MappingPolicy::drmap(), MappingPolicy::table_i_policy(2)] {
        let geometry = Geometry::salp_2gb_x8();
        let requests = policy
            .request_stream(geometry, 0, units, RequestKind::Read)
            .expect("the tile fits the device");
        let mut sim = simulator(ControllerConfig {
            record_commands: true,
            ..ControllerConfig::new(DramArch::SalpMasa)
        });
        let stats = sim.run(&requests, DriveMode::Streamed);
        let commands = sim.controller().commands();

        outln!(o, "--- {policy} ({units} bursts on SALP-MASA) ---");
        for line in format_command_trace(commands).lines().take(12) {
            outln!(o, "{line}");
        }
        if commands.len() > 12 {
            outln!(o, "... ({} more commands)", commands.len() - 12);
        }
        outln!(
            o,
            "makespan {} cycles | {:.2} cycles/access | hit rate {:.2} | energy {:.2} nJ",
            stats.makespan_cycles,
            stats.cycles_per_access(),
            stats.hit_rate(),
            stats.energy.total() * 1e9,
        );
        outln!(o);
    }
    o.push_str(
        "DRMap keeps the command stream dense in RD commands (row-buffer hits),\n\
         Mapping-2 interleaves subarrays and pays ACT/SASEL churn.\n",
    );
}

// ---------------------------------------------------------------------------
// The golden set itself, and properties read off the rendered data
// ---------------------------------------------------------------------------

#[test]
fn every_golden_has_a_renderer_and_every_renderer_a_golden() {
    let goldens: BTreeSet<String> = fs::read_dir(golden_dir())
        .expect("tests/golden exists")
        .map(|entry| entry.expect("a readable entry").file_name())
        .filter_map(|name| name.to_str()?.strip_suffix(".txt").map(str::to_owned))
        .collect();
    let renderers: BTreeSet<String> = FIGURES.iter().map(|(n, _)| n.to_string()).collect();
    let orphans: Vec<_> = goldens.symmetric_difference(&renderers).collect();
    assert!(
        orphans.is_empty(),
        "golden without renderer or renderer without golden: {orphans:?}"
    );
    assert_eq!(renderers.len(), FIGURES.len(), "a renderer is listed twice");
}

#[test]
fn engines_cover_all_archs() {
    let archs: Vec<DramArch> = engines().iter().map(|(arch, _)| *arch).collect();
    assert_eq!(archs, DramArch::ALL);
}

#[test]
fn network_totals_preserve_mapping_order() {
    let (_, ddr3) = &engines()[0];
    let totals = network_totals(ddr3, &Network::tiny(), ReuseScheme::AdaptiveReuse);
    for (i, (mapping, edp)) in totals.iter().enumerate() {
        assert_eq!(mapping.index(), i + 1);
        assert!(*edp > 0.0);
    }
    assert!(lowest(&totals).0.is_drmap(), "DRMap is the DDR3 minimum");
}

#[test]
fn salp_engines_never_worse_than_ddr3_for_drmap() {
    let tiny = Network::tiny();
    let drmap = |engine| network_totals(engine, &tiny, ReuseScheme::AdaptiveReuse)[2].1;
    let ddr3 = drmap(&engines()[0].1);
    for (arch, engine) in &engines()[1..] {
        let salp = drmap(engine);
        assert!(salp <= ddr3 * 1.001, "{arch}: {salp} vs {ddr3}");
    }
}
