//! Comparing parameter settings over one stream.
//!
//! §4.1: the engine "allows us to compare emergent topic rankings obtained
//! from different parameter settings in real-time". The shared prefix is
//! the prepared document stream: this example feeds one document list to
//! four differently configured engines and prints how their rankings
//! differ.
//!
//! Run with: `cargo run --release --example engine_tuning`

use enblogue::prelude::*;
use enblogue_datagen::nyt::{NytArchive, NytConfig};

fn main() {
    let archive = NytArchive::generate(&NytConfig {
        seed: 11,
        days: 60,
        docs_per_day: 150,
        n_categories: 20,
        n_descriptors: 160,
        n_entities: 80,
        n_terms: 400,
        historic_events: 4,
    });
    println!("Workload: {} docs over 60 days, 4 planted events\n", archive.len());

    let base = EnBlogueConfig::builder()
        .tick_spec(TickSpec::daily())
        .window_ticks(7)
        .seed_count(30)
        .min_seed_count(3)
        .top_k(5);

    let variants: Vec<(&str, EnBlogueConfig)> = vec![
        ("jaccard+ewma", base.clone().build().unwrap()),
        (
            "overlap+ewma",
            base.clone().measure(MeasureKind::Set(CorrelationMeasure::Overlap)).build().unwrap(),
        ),
        ("jaccard+holt", base.clone().predictor(PredictorKind::Holt(0.4, 0.2)).build().unwrap()),
        (
            "jaccard+relerr",
            base.clone().normalization(ErrorNormalization::Relative).build().unwrap(),
        ),
    ];

    let all: Vec<Vec<RankingSnapshot>> = variants
        .iter()
        .map(|(_, config)| EnBlogueEngine::new(config.clone()).run_replay(&archive.docs))
        .collect();

    // Show each setting's final top-3 side by side.
    for ((name, _), snaps) in variants.iter().zip(&all) {
        let last = snaps.last().expect("ticks closed");
        print!("{name:<16}");
        for &(pair, score) in last.ranked.iter().take(3) {
            print!(
                " [{} + {}] {:.3} |",
                archive.interner.display(pair.lo()),
                archive.interner.display(pair.hi()),
                score
            );
        }
        println!();
    }

    // Agreement matrix at k=5 across variants, averaged over all ticks.
    println!("\nmean top-5 agreement (jaccard) across all ticks:");
    print!("{:<16}", "");
    for (name, _) in &variants {
        print!("{name:>16}");
    }
    println!();
    for (i, (name_i, _)) in variants.iter().enumerate() {
        print!("{name_i:<16}");
        for (j, _) in variants.iter().enumerate() {
            let mut total = 0.0;
            let mut n = 0;
            for (a, b) in all[i].iter().zip(&all[j]) {
                let ka: std::collections::HashSet<TagPair> =
                    a.ranked.iter().take(5).map(|&(p, _)| p).collect();
                let kb: std::collections::HashSet<TagPair> =
                    b.ranked.iter().take(5).map(|&(p, _)| p).collect();
                if ka.is_empty() && kb.is_empty() {
                    continue;
                }
                total += ka.intersection(&kb).count() as f64 / ka.union(&kb).count() as f64;
                n += 1;
            }
            print!("{:>16.2}", if n == 0 { 1.0 } else { total / n as f64 });
        }
        println!();
    }
    println!(
        "\nDifferent measures/predictors agree on the strong events and diverge on the \
         borderline topics — the comparison the demo runs live."
    );
}
