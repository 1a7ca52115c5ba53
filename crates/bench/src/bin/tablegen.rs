//! Regenerates every table and figure of the SupeRBNN paper as text.
//!
//! ```text
//! tablegen [fig4|fig5|table1|clocking|fig10|fig11|fig12|table2|table3|ablation|faults|temperature|scaqfp|apc|synth|breakdown|all] [--quick]
//! ```
//!
//! `--quick` runs the training-based experiments at smoke-test scale.

use aqfp_crossbar::attenuation::AttenuationModel;
use aqfp_crossbar::cost::{table1, TABLE1_PAPER};
use aqfp_device::{AqfpBuffer, BufferConfig, CellLibrary, DeviceRng, SeedableRng};
use aqfp_netlist::clocking::{clocking_study, BcmMemory};
use aqfp_netlist::random::{random_dag, RandomDagConfig};
use baselines::cryo::fig12_series;
use baselines::published::{cifar10_baselines, mnist_baselines};
use superbnn::experiments::{
    ablation_aware_training, bitstream_sweep, fault_sweep, grid_sweep, scaqfp_sweep, table2_ours,
    table2_resnet, table3_ours, temperature_sweep, ExperimentScale, TABLE2_CONFIGS,
};

/// A subcommand name and the generator it runs.
type Artifact = (&'static str, fn(&ExperimentScale));

/// Every artifact, in the order `all` regenerates them.
const ARTIFACTS: [Artifact; 16] = [
    ("fig4", |_| fig4()),
    ("fig5", |_| fig5()),
    ("table1", |_| table1_gen()),
    ("clocking", |_| clocking()),
    ("fig12", |_| fig12()),
    ("fig10", fig10),
    ("fig11", fig11),
    ("table2", table2),
    ("table3", table3),
    ("ablation", ablation),
    ("faults", faults),
    ("temperature", temperature),
    ("scaqfp", scaqfp),
    ("apc", apc_comparison),
    ("synth", |_| synth()),
    ("breakdown", |_| breakdown()),
];

fn main() {
    let mut quick = false;
    let mut which: Option<String> = None;
    for arg in std::env::args().skip(1) {
        let known = arg == "all" || ARTIFACTS.iter().any(|(name, _)| *name == arg);
        if arg == "--quick" {
            quick = true;
        } else if known && which.is_none() {
            which = Some(arg);
        } else {
            let names: Vec<&str> = ARTIFACTS.iter().map(|(name, _)| *name).collect();
            eprintln!(
                "tablegen: unexpected argument '{arg}'\nusage: tablegen [{}|all] [--quick]",
                names.join("|")
            );
            std::process::exit(2);
        }
    }
    let which = which.unwrap_or_else(|| "all".to_string());
    let scale = if quick {
        ExperimentScale::quick()
    } else {
        ExperimentScale::full()
    };
    for (name, run) in ARTIFACTS {
        if which == "all" || which == name {
            run(&scale);
        }
    }
}

/// Per-layer energy decomposition of the VGG-Small deployment — where the
/// Table 2 attojoules actually go.
fn breakdown() {
    use superbnn::energy::estimate_with_breakdown;
    println!("\n=== Energy breakdown: VGG-Small at the default operating point ===");
    let spec = superbnn::spec::NetSpec::vgg_small([3, 16, 16], 8, 10);
    let hw = superbnn::config::HardwareConfig::default();
    let (report, layers) = estimate_with_breakdown(&spec, &hw);
    println!(
        "{:>26} {:>14} {:>14} {:>12} {:>10}",
        "layer", "crossbar (aJ)", "accum. (aJ)", "other (aJ)", "cycles"
    );
    for le in &layers {
        println!(
            "{:>26} {:>14.1} {:>14.1} {:>12.1} {:>10}",
            le.label, le.crossbar_aj, le.accumulation_aj, le.other_aj, le.cycles
        );
    }
    let xbar: f64 = layers.iter().map(|l| l.crossbar_aj).sum();
    let acc: f64 = layers.iter().map(|l| l.accumulation_aj).sum();
    println!(
        "total {:.1} aJ/inference ({:.0}% crossbars, {:.0}% SC accumulation), {:.2e} TOPS/W",
        report.energy_per_inference_aj,
        100.0 * xbar / report.energy_per_inference_aj,
        100.0 * acc / report.energy_per_inference_aj,
        report.tops_per_watt
    );
}

/// Section 7's EDA discussion: majority-logic synthesis and algebraic
/// optimization on concrete netlists.
fn synth() {
    use aqfp_netlist::builders::ripple_adder_aoi;
    use aqfp_netlist::synth::optimize;
    println!("\n=== Section 7: majority-logic synthesis passes ===");
    println!(
        "{:>26} {:>10} {:>10} {:>10} {:>10} {:>8}",
        "netlist", "gates in", "gates out", "JJ in", "JJ out", "saved"
    );
    let lib = CellLibrary::hstp();
    let show = |name: &str, nl: &aqfp_netlist::Netlist| {
        let (_, r) = optimize(nl, &lib);
        println!(
            "{:>26} {:>10} {:>10} {:>10} {:>10} {:>7.1}%",
            name,
            r.gates_before,
            r.gates_after,
            r.jj_before,
            r.jj_after,
            100.0 * r.jj_saving()
        );
    };
    for width in [8usize, 16, 32] {
        let (nl, _, _, _) = ripple_adder_aoi(width);
        show(&format!("AOI ripple adder {width}b"), &nl);
    }
    show("popcount 32", &aqfp_netlist::builders::popcount(32).0);
    let cfg = RandomDagConfig {
        inputs: 32,
        gates: 1000,
        ..Default::default()
    };
    let dag = random_dag(&cfg, &mut rand::rngs::StdRng::seed_from_u64(5));
    show("random DAG 1000 gates", &dag);
    println!("(the AOI adders show the headline rewrite of majority synthesis:");
    println!(" OR(AND(a,b), AND(c, OR(a,b))) → one native MAJ cell per carry)");
}

/// Section 4.3's accumulator choice: APC vs the conventional accumulative
/// parallel counter, costed gate-for-gate, plus the exact-vs-approximate
/// deployment ablation.
fn apc_comparison(scale: &ExperimentScale) {
    use aqfp_device::ClockScheme;
    use aqfp_sc::apc::counter_comparison;
    println!("\n=== Section 4.3: APC vs conventional accumulative counter (JJ) ===");
    println!(
        "{:>8} {:>12} {:>12} {:>14} {:>12}",
        "inputs", "APC", "approx APC", "accum. logic", "accum. mem"
    );
    let lib = CellLibrary::hstp();
    let clock = ClockScheme::four_phase_5ghz();
    for n in [4usize, 8, 16, 32] {
        let c = counter_comparison(n, 32, &lib, &clock);
        println!(
            "{:>8} {:>12} {:>12} {:>14} {:>12}",
            n, c.exact_apc_jj, c.approx_apc_jj, c.accumulative_logic_jj, c.accumulative_memory_jj
        );
    }
    println!("(paper: \"the APC consumes fewer logic gates compared with the");
    println!(" conventional accumulative parallel counter\" — reproduced; the");
    println!(" approximate-adder variant of Kim et al. [41] saves further JJs)");

    let r = superbnn::experiments::ablation_approx_counter(scale);
    println!("deployment ablation (MLP, 8x8 tiles, L=16): exact vs approximate APC:");
    println!(
        "  accuracy {:.1}% -> {:.1}%, efficiency {:.2e} -> {:.2e} TOPS/W",
        100.0 * r.exact_accuracy,
        100.0 * r.approx_accuracy,
        r.exact_energy.tops_per_watt,
        r.approx_energy.tops_per_watt
    );
    println!("(negative result: the approximate counter's error is unbiased only");
    println!(" for balanced streams; saturated inter-crossbar columns bias it,");
    println!(" so the modest JJ saving costs accuracy — the exact APC stays the");
    println!(" default, matching the architecture the paper deploys)");
}

/// Baseline rebuild: the pure-SC datapath's stream-length requirement
/// (paper Section 2.3's SC-AQFP contrast).
fn scaqfp(scale: &ExperimentScale) {
    println!("\n=== Baseline: pure stochastic computing (SC-AQFP datapath) ===");
    let lengths = [16usize, 32, 64, 128, 256, 512, 1024, 2048];
    let sweep = scaqfp_sweep(scale, &lengths);
    println!(
        "float MLP reference accuracy: {:.1}%",
        100.0 * sweep.float_accuracy
    );
    println!("{:>8} {:>12} {:>12}", "L", "APC path", "MUX path");
    for p in &sweep.points {
        println!(
            "{:>8} {:>11.1}% {:>11.1}%",
            p.stream_len,
            100.0 * p.apc_accuracy,
            100.0 * p.mux_accuracy
        );
    }
    println!("(paper Section 2.3: SC-AQFP needs L = 256∼2048 while SupeRBNN's");
    println!(" SC-as-accumulator design saturates at L = 16∼32 — compare fig10)");
}

/// Fig. 4: output probability of '1' vs input current.
fn fig4() {
    println!("\n=== Figure 4: AQFP buffer switching probability ===");
    println!(
        "{:>12} {:>12} {:>14}",
        "Iin (µA)", "P(1) model", "P(1) sampled"
    );
    let buffer = AqfpBuffer::new(BufferConfig::default());
    let mut rng = DeviceRng::seed_from_u64(4);
    let mut i = -4.0f64;
    while i <= 4.0 + 1e-9 {
        let p = buffer.probability_one(i);
        let n = 20_000;
        let ones = buffer
            .observe(i, n, &mut rng)
            .iter()
            .filter(|b| b.as_bool())
            .count();
        println!("{:>12.2} {:>12.4} {:>14.4}", i, p, ones as f64 / n as f64);
        i += 0.5;
    }
    println!("(randomized band ≈ ±2 µA, matching the paper's figure)");
}

/// Fig. 5b: current attenuation vs crossbar size, plus the refit check.
fn fig5() {
    println!("\n=== Figure 5b: crossbar current attenuation ===");
    let model = AttenuationModel::paper_fit();
    let sizes = [4usize, 8, 16, 18, 36, 72, 144];
    println!("{:>8} {:>16}", "size", "I1(Cs) (µA)");
    let mut samples = Vec::new();
    for &(cs, i1) in model.curve(&sizes).iter() {
        println!("{:>8} {:>16.4}", cs, i1);
        samples.push((cs, i1));
    }
    let refit = AttenuationModel::fit(&samples).expect("clean power law refits");
    println!(
        "power-law refit of the curve: A = {:.2} µA, B = {:.3} (truth {:.2}, {:.3})",
        refit.a_ua, refit.b, model.a_ua, model.b
    );
}

/// Table 1: latency / JJ / energy vs size, checked against the paper.
fn table1_gen() {
    println!("\n=== Table 1: crossbar hardware costs ===");
    println!(
        "{:>10} {:>14} {:>10} {:>18} {:>8}",
        "size", "latency (ps)", "#JJs", "energy (aJ/cycle)", "match"
    );
    for (row, &(_, lat, jj, e)) in table1().iter().zip(TABLE1_PAPER.iter()) {
        let ok = (row.latency_ps - lat).abs() < 1e-9
            && row.jj_count == jj
            && (row.energy_aj - e).abs() < 1e-9;
        println!(
            "{:>7}x{:<3} {:>13.0} {:>10} {:>18.2} {:>8}",
            row.size,
            row.size,
            row.latency_ps,
            row.jj_count,
            row.energy_aj,
            if ok { "exact" } else { "MISMATCH" }
        );
    }
}

/// Section 4.4: clocking-scheme JJ savings.
fn clocking() {
    println!("\n=== Section 4.4: clocking-scheme optimization ===");
    let lib = CellLibrary::hstp();
    let cfg = RandomDagConfig {
        inputs: 64,
        gates: 3000,
        ..Default::default()
    };
    let base = random_dag(&cfg, &mut rand::rngs::StdRng::seed_from_u64(2023));
    println!("computing part (64-input, 3000-gate benchmark):");
    println!(
        "{:>8} {:>10} {:>12} {:>12}  (paper: >=20.8% @8, >=27.3% @16)",
        "phases", "buffers", "total JJ", "JJ saved"
    );
    for r in clocking_study(&base, &[4, 8, 16], &lib) {
        println!(
            "{:>8} {:>10} {:>12} {:>11.1}%",
            r.phases,
            r.buffers,
            r.cost.jj_total,
            100.0 * r.jj_reduction_vs_4phase
        );
    }
    println!("memory (BCM), 4 -> 3 phases (paper: 20%):");
    for bits in [256usize, 4096] {
        println!(
            "  {} bits: {:.1}% JJ saved",
            bits,
            100.0 * BcmMemory::reduction_from_4phase(bits, 3)
        );
    }
    // Section 6.1: the delay-line (micro-stripline) clocking scheme — 40
    // effective phases, 5 ps stage-to-stage delay.
    let dl = aqfp_netlist::clocking::delay_line_study(&base, &lib);
    println!("delay-line clocking (Section 6.1, 40 phases @ 5 ps/stage):");
    println!(
        "  latency {:.0} ps -> {:.0} ps ({:.1}x), JJ saved {:.1}%",
        dl.conventional.latency_ps,
        dl.delay_line.latency_ps,
        dl.latency_speedup(),
        100.0 * dl.jj_reduction()
    );
}

/// Fig. 12: energy efficiency vs frequency against (Cryo-)CMOS.
fn fig12() {
    println!("\n=== Figure 12: efficiency vs frequency, ours vs (Cryo-)CMOS ===");
    // Ours at 5 GHz from the Table 2 methodology (VGG-Small default config);
    // the CMOS reference is CMOS-BNN's 617 TOPS/W.
    let ours_5ghz = superbnn::energy::estimate(
        &superbnn::spec::NetSpec::vgg_small([3, 16, 16], 8, 10),
        &superbnn::config::HardwareConfig::default(),
    )
    .tops_per_watt;
    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "f (GHz)", "ours", "ours+cool", "CMOS", "cryoCMOS", "cryo+cool"
    );
    for p in fig12_series(&[0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0], ours_5ghz, 617.0) {
        println!(
            "{:>8.1} {:>12.3e} {:>12.3e} {:>12.3e} {:>12.3e} {:>12.3e}",
            p.frequency_ghz, p.ours, p.ours_cooled, p.cmos, p.cryo_cmos, p.cryo_cmos_cooled
        );
    }
}

/// Fig. 10: accuracy vs SC bit-stream length.
fn fig10(scale: &ExperimentScale) {
    println!("\n=== Figure 10: accuracy vs SC bit-stream length ===");
    let lengths = [1usize, 2, 4, 8, 16, 32, 64];
    let sizes = [8usize, 16, 32, 72];
    let pts = bitstream_sweep(scale, &lengths, &sizes, 2.4);
    print!("{:>10}", "L \\ Cs");
    for &cs in &sizes {
        print!(" {cs:>8}");
    }
    println!();
    for &l in &lengths {
        print!("{l:>10}");
        for &cs in &sizes {
            let p = pts
                .iter()
                .find(|p| p.crossbar == cs && p.bitstream_len == l)
                .expect("full grid");
            print!(" {:>7.1}%", 100.0 * p.accuracy);
        }
        println!();
    }
    println!("(expected shape: rising in L, saturating by L ~ 16-32)");
}

/// Fig. 11: accuracy over the (ΔIin, Cs) grid at L = 1.
fn fig11(scale: &ExperimentScale) {
    println!("\n=== Figure 11: accuracy over (ΔIin, crossbar size), L = 1 ===");
    let sizes = [8usize, 16, 32, 72];
    let grayzones = [0.8f64, 1.6, 2.4, 3.2, 4.0, 8.0];
    let pts = grid_sweep(scale, &sizes, &grayzones);
    print!("{:>10}", "dI \\ Cs");
    for &cs in &sizes {
        print!(" {cs:>8}");
    }
    println!();
    for &gz in &grayzones {
        print!("{gz:>10.1}");
        for &cs in &sizes {
            let p = pts
                .iter()
                .find(|p| p.crossbar == cs && (p.grayzone_ua - gz).abs() < 1e-9)
                .expect("full grid");
            print!(" {:>7.1}%", 100.0 * p.accuracy);
        }
        println!();
    }
    println!("(expected shape: multiple interior peaks; cliffs at extremes)");
}

/// Table 2: CIFAR-10-class comparison.
fn table2(scale: &ExperimentScale) {
    println!("\n=== Table 2: CIFAR-10-class comparison ===");
    println!(
        "{:<48} {:>9} {:>12} {:>12} {:>10}",
        "Design", "Accuracy", "TOPS/W", "+cooling", "img/ms"
    );
    for b in cifar10_baselines() {
        println!(
            "{:<48} {:>8.1}% {:>12.3e} {:>12} {:>10}",
            b.name,
            b.accuracy_pct,
            b.tops_per_watt,
            "-",
            b.throughput_img_per_ms
                .map_or_else(|| "-".into(), |v: f64| format!("{v:.1}")),
        );
    }
    let mut rows = table2_ours(scale, &TABLE2_CONFIGS);
    rows.push(table2_resnet(scale));
    for r in rows {
        println!(
            "{:<48} {:>8.1}% {:>12.3e} {:>12.3e} {:>10.1}",
            r.label,
            100.0 * r.accuracy,
            r.energy.tops_per_watt,
            r.energy.tops_per_watt_cooled,
            r.energy.images_per_ms,
        );
    }
}

/// Table 3: MNIST-class MLP comparison.
fn table3(scale: &ExperimentScale) {
    println!("\n=== Table 3: MNIST-class MLP comparison ===");
    println!(
        "{:<16} {:>9} {:>14} {:>14}",
        "Design", "Accuracy", "TOPS/W", "+cooling"
    );
    for b in mnist_baselines() {
        println!(
            "{:<16} {:>8.1}% {:>14.3e} {:>14}",
            b.name,
            b.accuracy_pct,
            b.tops_per_watt,
            b.tops_per_watt_cooled
                .map_or_else(|| "-".into(), |v: f64| format!("{v:.3e}")),
        );
    }
    let r = table3_ours(scale);
    println!(
        "{:<16} {:>8.1}% {:>14.3e} {:>14.3e}   (software ref {:.1}%)",
        "Ours (MLP)",
        100.0 * r.accuracy,
        r.energy.tops_per_watt,
        r.energy.tops_per_watt_cooled,
        100.0 * r.software_accuracy,
    );
}

/// Ablation: randomized-aware training on vs off.
fn ablation(scale: &ExperimentScale) {
    println!("\n=== Ablation: AQFP-aware training (Contribution #1) ===");
    let a = ablation_aware_training(scale);
    println!(
        "deployed accuracy on stressful hardware: aware {:.1}% vs naive {:.1}%",
        100.0 * a.aware_accuracy,
        100.0 * a.naive_accuracy
    );
}

/// Extension: accuracy vs fabrication-defect rate.
fn faults(scale: &ExperimentScale) {
    println!("\n=== Extension: fault robustness (stuck cells + dead columns) ===");
    println!("{:>14} {:>10} {:>10}", "stuck rate", "defects", "accuracy");
    for p in fault_sweep(scale, &[0.0, 0.001, 0.005, 0.02, 0.05, 0.1]) {
        println!(
            "{:>14.3} {:>10} {:>9.1}%",
            p.stuck_cell_rate,
            p.defects,
            100.0 * p.accuracy
        );
    }
}

/// Extension: accuracy vs operating temperature.
fn temperature(scale: &ExperimentScale) {
    println!("\n=== Extension: accuracy vs operating temperature ===");
    println!("{:>8} {:>14} {:>10}", "T (K)", "ΔIin (µA)", "accuracy");
    for p in temperature_sweep(scale, &[0.5, 2.0, 4.2, 8.0, 15.0, 30.0]) {
        println!(
            "{:>8.1} {:>14.2} {:>9.1}%",
            p.temperature_k,
            p.grayzone_ua,
            100.0 * p.accuracy
        );
    }
    println!("(temperature is another knob on the Fig. 11 gray-zone axis: at");
    println!(" this crossbar size the 4.2 K width sits BELOW the SC-linear");
    println!(" optimum, so moderate warming helps before excess noise hurts)");
}
