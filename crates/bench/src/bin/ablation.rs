//! Ablation studies over the design choices DESIGN.md calls out:
//! softirq deferral probability, NIC coalescing, and VM amplification.
use bf_bench::run_bin;
use bf_core::{AttackKind, CollectionConfig};
use bf_ml::{Classifier, CnnLstmClassifier, TrainConfig};
use bf_nn::{CnnLstmConfig, LstmActivation, PoolKind};
use bf_sim::engine::KernelTuning;
use bf_sim::{Machine, MachineConfig};
use bf_timer::{BrowserKind, Nanos};
use bf_victim::WebsiteProfile;

fn main() -> std::process::ExitCode {
    run_bin("ablations", "ablation", |m, scale, seed| {
        run_ablations(m, scale, seed);
        Ok(())
    })
}

fn run_ablations(m: &mut bf_obs::ManifestBuilder, scale: bf_core::ExperimentScale, seed: u64) {
    // 1. Softirq deferral: how much attacker-core interrupt share comes
    //    from deferred (non-movable) softirq placement?
    println!("softirq local-execution probability vs attacker-core interrupt share");
    let site = WebsiteProfile::for_hostname("nytimes.com");
    m.phase("softirq_deferral", || {
        for local_prob in [0.25, 0.5, 0.75, 1.0] {
            let tuning = KernelTuning {
                softirq_local_prob: local_prob,
                ..Default::default()
            };
            let mut cfg = MachineConfig::default();
            cfg.isolation.confine_movable_irqs = true;
            cfg.isolation.pin_cores = true;
            let machine = Machine::with_tuning(cfg, tuning);
            let workload = site.generate(Nanos::from_secs(15), seed);
            let sim = machine.run(&workload, seed);
            let share = sim
                .attacker_timeline()
                .interrupt_share(Nanos::ZERO, Nanos::from_secs(5));
            println!(
                "  local_prob {local_prob:.2}: first-5s share {:.3}%",
                share * 100.0
            );
        }
    });

    // 2. NIC coalescing: IRQ batch size vs kernel-event count.
    println!("\nNIC coalescing budget vs kernel event count");
    m.phase("nic_coalescing", || {
        for max in [4u32, 16, 64] {
            let tuning = KernelTuning {
                nic_coalesce_max: max,
                ..Default::default()
            };
            let machine = Machine::with_tuning(MachineConfig::default(), tuning);
            let workload = site.generate(Nanos::from_secs(15), seed);
            let sim = machine.run(&workload, seed);
            println!(
                "  coalesce_max {max:>2}: {} kernel events",
                sim.kernel_log().len()
            );
        }
    });

    // 3. Classifier ablations: pooling operator and LSTM activation
    //    (DESIGN.md §5.6): train on one shared dataset.
    println!("\nclassifier ablations (20 sites x 16 traces, one fold)");
    m.phase("classifier_ablations", || {
        let cfg =
            CollectionConfig::new(BrowserKind::Chrome, AttackKind::LoopCounting).with_scale(scale);
        let data = cfg.collect_closed_world(20, 16, seed);
        let folds = data.stratified_folds(4, 1);
        let (tr, va, te) = data.split_for_fold(&folds, 0, 1);
        let (train, val, test) = (data.subset(&tr), data.subset(&va), data.subset(&te));
        for (label, pool, act) in [
            (
                "max pool + tanh LSTM (scaled default)",
                PoolKind::Max,
                LstmActivation::Tanh,
            ),
            ("avg pool + tanh LSTM", PoolKind::Avg, LstmActivation::Tanh),
            (
                "max pool + sigmoid LSTM (paper literal)",
                PoolKind::Max,
                LstmActivation::Sigmoid,
            ),
        ] {
            let mut arch = CnnLstmConfig::scaled(data.feature_len(), 20, 16);
            arch.pool_kind = pool;
            arch.lstm_activation = act;
            arch.learning_rate = 0.01;
            arch.dropout = 0.5;
            let mut clf = CnnLstmClassifier::new(
                arch,
                TrainConfig {
                    max_epochs: 80,
                    batch_size: 32,
                    patience: 1_000,
                    min_epochs: 0,
                    seed,
                },
            );
            clf.fit(&train, &val);
            let acc = clf
                .predict(test.features())
                .iter()
                .zip(test.labels())
                .filter(|(a, b)| a == b)
                .count() as f64
                / test.len() as f64;
            println!("  {label}: test top-1 {:.1}%", acc * 100.0);
        }
    });

    // 4. VM amplification factor vs attack accuracy.
    println!("\nVM handler-time amplification vs closed-world accuracy");
    m.phase("vm_amplification", || {
        for amp in [1.0f64, 1.9, 3.0] {
            let mut machine = MachineConfig::default();
            machine.isolation.vm = bf_sim::VmMode::SeparateVms;
            machine.vm_amplification = amp.max(1.0);
            let cfg = CollectionConfig::new(BrowserKind::Native, AttackKind::LoopCounting)
                .with_machine(machine)
                .with_scale(scale);
            let r = cfg.evaluate_closed_world(seed);
            println!(
                "  amplification {amp:.1}: top-1 {:.1}%",
                r.mean_accuracy() * 100.0
            );
        }
    });
}
