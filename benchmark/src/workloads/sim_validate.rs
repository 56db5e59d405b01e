//! `sim-validate` — in process, one thread: `Validator::validate` of
//! the DSE winner for each AlexNet layer on each of the four
//! architectures (32 cases per pass).
//!
//! The command-level simulator in `dram` does most of the work. It is
//! also the reference model, so this workload carries the accuracy
//! numbers: a change that speeds `core` up by bending the analytical
//! model moves `model_cycle_err` / `model_energy_err` — and, because
//! every report is digested against a golden file, fails the run.

use std::time::Instant;

use drmap_cnn::layer::DataKind;
use drmap_cnn::network::Network;
use drmap_core::access_model::bytes_to_bursts;
use drmap_core::dse::DseCandidate;
use drmap_core::validate::{ValidationReport, Validator};
use drmap_dram::controller::ControllerConfig;
use drmap_dram::energy::EnergyParams;
use drmap_dram::geometry::Geometry;
use drmap_dram::request::{DriveMode, Request, RequestKind};
use drmap_dram::sim::DramSimulator;
use drmap_dram::timing::TimingParams;
use drmap_service::json::Json;

use super::dse_sweep::{
    explore_all_archs, gate_single_threaded, gate_winners, measure_units, Explored,
};
use super::{timed_setup, Config};
use crate::probe::{probe_ns, MIN_CALLS};
use crate::report::Outcome;

/// The explored winners plus, per architecture, the validator and the
/// verified report of every layer.
struct Setup {
    explored: Explored,
    validators: Vec<Validator>,
    reports: Vec<Vec<ValidationReport>>,
}

fn setup(network: &Network) -> Result<Setup, String> {
    let explored = explore_all_archs(network.layers())?;
    let mut validators = Vec::new();
    let mut reports = Vec::new();
    for (arch, engine, results) in &explored {
        let validator = Validator::table_ii(*arch).map_err(|e| e.to_string())?;
        let per_layer = network
            .layers()
            .iter()
            .zip(results)
            .map(|(layer, r)| {
                validator
                    .validate(engine.model(), layer, &r.best)
                    .map_err(|e| e.to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        validators.push(validator);
        reports.push(per_layer);
    }
    Ok(Setup {
        explored,
        validators,
        reports,
    })
}

/// The tile streams `Validator::validate` replays for one case:
/// `(bursts per tile, kind, tiles replayed)` per traffic class, counted
/// from the report's `tiles_replayed` — so the request count repeats
/// exactly and does not depend on how long the replay took.
fn replayed_streams(
    layer: &drmap_cnn::layer::Layer,
    candidate: &DseCandidate,
    report: &ValidationReport,
    model: &drmap_core::edp::EdpModel,
) -> [(u64, RequestKind, u64); 4] {
    let acc = model.traffic_model().accelerator();
    let bursts = |kind: DataKind| {
        bytes_to_bursts(
            candidate.tiling.tile_bytes(layer, acc, kind),
            model.geometry(),
        )
    };
    let kinds = [
        (DataKind::Ifms, RequestKind::Read),
        (DataKind::Wghs, RequestKind::Read),
        (DataKind::Ofms, RequestKind::Read),
        (DataKind::Ofms, RequestKind::Write),
    ];
    std::array::from_fn(|c| (bursts(kinds[c].0), kinds[c].1, report.tiles_replayed[c]))
}

/// Run the workload.
pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::new("sim-validate");
    let network = Network::alexnet();
    let layers = network.layers();

    let (setup, setup_s) = match timed_setup(|| setup(&network)) {
        Ok(done) => done,
        Err(e) => {
            out.violation(format!("set-up failed: {e}"));
            return out;
        }
    };
    gate_winners(
        &setup.explored,
        |a, l, h| h.validation(&setup.reports[a][l]),
        &cfg.root.join("golden/sim-validate.digest"),
        cfg.regen_golden,
        &mut out,
    );

    // One unit per (architecture, layer).
    let cases: Vec<(usize, usize)> = (0..setup.explored.len())
        .flat_map(|a| (0..layers.len()).map(move |l| (a, l)))
        .collect();
    let validate = |u: usize| {
        let (a, l) = cases[u];
        let (_, engine, results) = &setup.explored[a];
        let t0 = Instant::now();
        let report = setup.validators[a].validate(engine.model(), &layers[l], &results[l].best);
        let ns = t0.elapsed().as_nanos() as u64;
        (ns, matches!(&report, Ok(r) if *r == setup.reports[a][l]))
    };
    let span = "core.validate.validate";
    let Some((run, mut rec)) = measure_units(cfg, &mut out, cases.len(), span, setup_s, validate)
    else {
        return out;
    };

    // Simulated requests per pass, and the accuracy of the analytical
    // model against the simulator: both exact.
    let mut requests = 0u64;
    let (mut cycle_err, mut energy_err) = (0.0, 0.0);
    for &(a, l) in &cases {
        let (_, engine, results) = &setup.explored[a];
        let report = &setup.reports[a][l];
        requests += replayed_streams(&layers[l], &results[l].best, report, engine.model())
            .iter()
            .map(|(bursts, _, tiles)| bursts * tiles)
            .sum::<u64>();
        cycle_err += (report.cycle_ratio() - 1.0).abs();
        energy_err += (report.energy_ratio() - 1.0).abs();
    }
    let pass_ns = run.times.sum_fastest() as f64;
    let v = &mut out.values;
    v.set("sim_mreq_per_s", requests as f64 / pass_ns * 1e3);
    v.set("model_cycle_err", cycle_err / cases.len() as f64);
    v.set("model_energy_err", energy_err / cases.len() as f64);
    v.set(
        "core.validate.ms_per_case",
        pass_ns / cases.len() as f64 / 1e6,
    );
    out.facts
        .push(("sim_requests_per_pass", Json::num_u64(requests)));

    // `DramSimulator::run` alone, on the first replayed tile of every
    // case and class: host time per simulated request, and the
    // simulated statistics a speed-only change must leave alone.
    let geometry = Geometry::salp_2gb_x8();
    let mut streams: Vec<(usize, Vec<Request>)> = Vec::new();
    for &(a, l) in &cases {
        let (_, engine, results) = &setup.explored[a];
        let best = &results[l].best;
        for (bursts, kind, tiles) in
            replayed_streams(&layers[l], best, &setup.reports[a][l], engine.model())
        {
            if bursts > 0 && tiles > 0 {
                match best.mapping.request_stream(geometry, 0, bursts, kind) {
                    Ok(stream) => streams.push((a, stream)),
                    Err(e) => out.violation(format!("request stream: {e}")),
                }
            }
        }
    }
    let reps = MIN_CALLS.div_ceil(streams.len().max(1));
    let (mut sim_ns, mut sim_reqs, mut sim_cycles, mut sim_hits) = (0.0, 0u64, 0u64, 0.0);
    for (a, stream) in &streams {
        let arch = setup.explored[*a].0;
        let mut sim = match DramSimulator::new(
            geometry,
            TimingParams::ddr3_1600k(),
            ControllerConfig::new(arch),
            EnergyParams::micron_2gb_x8(),
        ) {
            Ok(sim) => sim,
            Err(e) => {
                out.violation(format!("simulator: {e}"));
                break;
            }
        };
        let stats = sim.run(stream, DriveMode::Streamed);
        sim_reqs += stats.requests;
        sim_cycles += stats.makespan_cycles;
        sim_hits += stats.hit_rate() * stats.requests as f64;
        sim_ns += probe_ns(&mut rec, "dram.sim.run", reps, 1, || {
            std::hint::black_box(sim.run(stream, DriveMode::Streamed));
        });
    }
    let v = &mut out.values;
    if sim_reqs > 0 {
        v.set("dram.sim.ns_per_req", sim_ns / sim_reqs as f64);
        v.set(
            "dram.sim.cycles_per_req",
            sim_cycles as f64 / sim_reqs as f64,
        );
        v.set("dram.sim.row_hit_rate", sim_hits / sim_reqs as f64);
    }
    out.spans = rec.finish();
    gate_single_threaded(&mut out);
    out
}
