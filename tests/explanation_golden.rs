//! Golden explanation fingerprints: the closest-truss-community explanation
//! of a fixed query corpus, pinned field for field against
//! `tests/golden/explanations.tsv`.
//!
//! The world is the benchmark's: the standard formulary, the DDI graph and
//! the 4,157-patient chronic cohort drawn from seed 11 in that order. The
//! corpus is
//!
//! * `critique.NNN` — the first 256 distinct held-out medication lists with
//!   at least two drugs, each critiqued through a support-only
//!   [`DecisionService::check_prescription`];
//! * `set.NN` — 64 seeded drug sets of 1–6 drugs, unsorted and with
//!   repeats, explained through [`ExplanationIndex::explain`];
//! * `single.NN` — every single-drug set, explained the same way.
//!
//! Each fixture line is tab-separated: label, query, community nodes,
//! community edges, trussness, diameter, signed edges, `r_in_pos`,
//! `r_in_neg`, `r_out_neg` and SS as its f64 bit pattern in hex. A failing
//! line means an explanation changed: a different community, a different
//! sign count, or an SS that moved by as little as one ulp.

// Tests may panic freely.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use dssddi::core::ms_module::ExplanationIndex;
use dssddi::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const FIXTURES: &str = include_str!("golden/explanations.tsv");

/// The benchmark world's seed (graph, then cohort, from one generator).
const WORLD_SEED: u64 = 11;
/// The paper's cohort size.
const COHORT_PATIENTS: usize = 4157;
/// Share of the cohort the benchmark fits on; the rest is held out.
const OBSERVED_SHARE: f64 = 0.6;
/// Number of distinct held-out medication lists critiqued.
const CRITIQUES: usize = 256;
/// Number of seeded drug sets explained.
const SEEDED_SETS: usize = 64;
/// Seed of the seeded drug sets.
const SET_SEED: u64 = 0x5eed_0e0e;

fn list(items: impl IntoIterator<Item = String>) -> String {
    let joined: Vec<String> = items.into_iter().collect();
    if joined.is_empty() {
        "-".to_string()
    } else {
        joined.join(",")
    }
}

fn sign(interaction: Interaction) -> &'static str {
    match interaction {
        Interaction::Synergistic => "+",
        Interaction::Antagonistic => "-",
        Interaction::None => "0",
    }
}

/// One fixture line for `explanation`, produced for `query`.
fn fingerprint(label: &str, query: &[usize], explanation: &Explanation) -> String {
    let community = &explanation.community;
    [
        label.to_string(),
        list(query.iter().map(usize::to_string)),
        list(community.nodes.iter().map(usize::to_string)),
        list(community.edges.iter().map(|(u, v)| format!("{u}-{v}"))),
        community.trussness.to_string(),
        community.diameter.to_string(),
        list(
            explanation
                .edges
                .iter()
                .map(|e| format!("{}-{}{}", e.u, e.v, sign(e.interaction))),
        ),
        explanation.internal_synergy.to_string(),
        explanation.internal_antagonism.to_string(),
        explanation.external_antagonism.to_string(),
        format!("{:016x}", explanation.suggestion_satisfaction.to_bits()),
    ]
    .join("\t")
}

/// Every fixture line, in corpus order.
fn corpus() -> Vec<String> {
    let registry = DrugRegistry::standard();
    let mut rng = StdRng::seed_from_u64(WORLD_SEED);
    let ddi = generate_ddi_graph(&registry, &DdiConfig::default(), &mut rng).unwrap();
    let cohort = generate_chronic_cohort(
        &registry,
        &ddi,
        &ChronicConfig {
            n_patients: COHORT_PATIENTS,
            ..Default::default()
        },
        &mut rng,
    )
    .unwrap();
    let n_observed = (COHORT_PATIENTS as f64 * OBSERVED_SHARE).round() as usize;
    let n_drugs = ddi.node_count();
    let mut lines = Vec::new();

    let service = ServiceBuilder::new().build_support(&ddi).unwrap();
    let mut critiqued: Vec<Vec<usize>> = Vec::new();
    for patient in n_observed..COHORT_PATIENTS {
        let drugs = cohort.drugs_of(patient);
        if drugs.len() < 2 || critiqued.contains(&drugs) {
            continue;
        }
        let request =
            CheckPrescriptionRequest::new(drugs.iter().map(|&d| DrugId::new(d)).collect());
        let report = service.check_prescription(&request).unwrap();
        assert_eq!(
            report.suggestion_satisfaction.to_bits(),
            report.explanation.suggestion_satisfaction.to_bits()
        );
        let label = format!("critique.{:03}", critiqued.len());
        lines.push(fingerprint(&label, &drugs, &report.explanation));
        critiqued.push(drugs);
        if critiqued.len() == CRITIQUES {
            break;
        }
    }
    assert_eq!(
        critiqued.len(),
        CRITIQUES,
        "too few distinct held-out lists"
    );

    let index = ExplanationIndex::build(&ddi);
    let config = MsModuleConfig::default();
    let mut set_rng = StdRng::seed_from_u64(SET_SEED);
    for i in 0..SEEDED_SETS {
        let len = set_rng.gen_range(1..=6usize);
        let mut drugs: Vec<usize> = (0..len).map(|_| set_rng.gen_range(0..n_drugs)).collect();
        // Every other multi-drug set ends on a repeat of an earlier drug.
        if i % 2 == 1 && len > 1 {
            drugs[len - 1] = drugs[set_rng.gen_range(0..len - 1)];
        }
        let explanation = index.explain(&ddi, &drugs, &config).unwrap();
        lines.push(fingerprint(&format!("set.{i:02}"), &drugs, &explanation));
    }
    for drug in 0..n_drugs {
        let explanation = index.explain(&ddi, &[drug], &config).unwrap();
        lines.push(fingerprint(
            &format!("single.{drug:02}"),
            &[drug],
            &explanation,
        ));
    }
    lines
}

/// The checked-in fixture lines, in file order.
fn fixtures() -> Vec<&'static str> {
    FIXTURES
        .lines()
        .filter(|line| !line.trim().is_empty())
        .collect()
}

fn label_of(line: &str) -> &str {
    line.split('\t').next().unwrap_or_default()
}

#[test]
fn explanations_match_the_golden_fingerprints() {
    let fixtures = fixtures();
    let corpus = corpus();
    let fixture_labels: Vec<&str> = fixtures.iter().map(|l| label_of(l)).collect();
    let corpus_labels: Vec<&str> = corpus.iter().map(|l| label_of(l)).collect();
    assert_eq!(
        fixture_labels, corpus_labels,
        "fixture file and corpus disagree on labels"
    );
    for (golden, line) in fixtures.iter().zip(&corpus) {
        assert_eq!(
            line,
            golden,
            "{}: explanation differs from the golden fingerprint",
            label_of(golden)
        );
    }
}
