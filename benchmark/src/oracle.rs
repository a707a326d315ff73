//! The output oracle: every gateway answer is compared with the answer of
//! an in-process reference service loaded from the same container — drug
//! IDs and names, score bits, explanation node and edge sets, Suggestion
//! Satisfaction bits, and critique pair lists with their severities.

use dssddi_core::ms_module::Explanation;
use dssddi_core::{
    DecisionService, InteractionReport, PairInteraction, ScoredDrug, SuggestResponse,
};
use dssddi_kb::KnowledgeBase;

use crate::workload::{K_MAX, K_MIN};
use crate::world::Patients;

/// Reference answers for every request a workload can generate.
pub struct Expected {
    /// `suggest[k - K_MIN][patient]`, for the `k` values computed.
    suggest: Vec<Vec<SuggestResponse>>,
    /// `check[patient]`, for patients with at least two recorded drugs.
    check: Vec<Option<InteractionReport>>,
}

impl Expected {
    /// Computes the reference answers: suggestions for every held-out
    /// patient at every `k` in `ks`, and (with `checks`) the critique of
    /// every critiquable patient. Runs on two threads.
    pub fn compute(
        service: &DecisionService,
        kb: &KnowledgeBase,
        patients: &Patients,
        ks: std::ops::RangeInclusive<usize>,
        checks: bool,
    ) -> Result<Self, String> {
        let n = patients.ids.len();
        let mut suggest = Vec::new();
        for k in K_MIN..=K_MAX {
            if !ks.contains(&k) {
                suggest.push(Vec::new());
                continue;
            }
            let requests: Vec<_> = (0..n).map(|i| patients.suggest(i, k)).collect();
            suggest.push(
                service
                    .suggest_batch_with_kb(&requests, Some(kb))
                    .map_err(|e| format!("reference suggest (k = {k}): {e}"))?,
            );
        }
        let mut check: Vec<Option<InteractionReport>> = vec![None; n];
        if checks {
            let half = n / 2;
            let (low, high) = check.split_at_mut(half);
            std::thread::scope(|s| -> Result<(), String> {
                let fill = |slots: &mut [Option<InteractionReport>], offset: usize| {
                    for (j, slot) in slots.iter_mut().enumerate() {
                        let i = offset + j;
                        if patients.medications[i].len() >= 2 {
                            *slot = Some(
                                service
                                    .check_prescription_with_kb(&patients.check(i), Some(kb))
                                    .map_err(|e| format!("reference check: {e}"))?,
                            );
                        }
                    }
                    Ok::<(), String>(())
                };
                let worker = s.spawn(move || fill(high, half));
                fill(low, 0)?;
                worker
                    .join()
                    .map_err(|_| "reference check thread panicked")?
            })?;
        }
        Ok(Self { suggest, check })
    }

    /// The reference suggestion for `patient` at `k`.
    pub fn suggest(&self, patient: usize, k: usize) -> Option<&SuggestResponse> {
        self.suggest.get(k.checked_sub(K_MIN)?)?.get(patient)
    }

    /// The reference critique for `patient`.
    pub fn check(&self, patient: usize) -> Option<&InteractionReport> {
        self.check.get(patient)?.as_ref()
    }
}

/// Compares two suggestions field by field, floats by bits.
pub fn same_suggestion(got: &SuggestResponse, want: &SuggestResponse) -> Result<(), String> {
    if got.patient != want.patient {
        return Err(format!("patient {} != {}", got.patient, want.patient));
    }
    same_drugs(&got.drugs, &want.drugs)?;
    same_explanation(&got.explanation, &want.explanation)?;
    same_bits(
        "suggestion satisfaction",
        got.suggestion_satisfaction,
        want.suggestion_satisfaction,
    )
}

/// Compares two critiques field by field, floats by bits.
pub fn same_report(got: &InteractionReport, want: &InteractionReport) -> Result<(), String> {
    if got.patient != want.patient {
        return Err(format!("patient {:?} != {:?}", got.patient, want.patient));
    }
    same_drugs(&got.drugs, &want.drugs)?;
    same_pairs("antagonistic", &got.antagonistic, &want.antagonistic)?;
    same_pairs("synergistic", &got.synergistic, &want.synergistic)?;
    same_explanation(&got.explanation, &want.explanation)?;
    same_bits(
        "suggestion satisfaction",
        got.suggestion_satisfaction,
        want.suggestion_satisfaction,
    )?;
    if got.kb_version != want.kb_version {
        return Err(format!(
            "kb version {:?} != {:?}",
            got.kb_version, want.kb_version
        ));
    }
    Ok(())
}

fn same_bits(what: &str, got: f64, want: f64) -> Result<(), String> {
    if got.to_bits() == want.to_bits() {
        Ok(())
    } else {
        Err(format!("{what} {got:?} != {want:?}"))
    }
}

fn same_drugs(got: &[ScoredDrug], want: &[ScoredDrug]) -> Result<(), String> {
    let key = |d: &ScoredDrug| (d.id, d.name.clone(), d.score.to_bits());
    let got: Vec<_> = got.iter().map(key).collect();
    let want: Vec<_> = want.iter().map(key).collect();
    if got == want {
        Ok(())
    } else {
        Err(format!("drugs (id, name, score bits) {got:?} != {want:?}"))
    }
}

fn same_pairs(what: &str, got: &[PairInteraction], want: &[PairInteraction]) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        let brief = |pairs: &[PairInteraction]| -> Vec<_> {
            pairs
                .iter()
                .map(|p| (p.a, p.b, p.interaction, p.severity))
                .collect()
        };
        Err(format!(
            "{what} pairs {:?} != {:?}",
            brief(got),
            brief(want)
        ))
    }
}

fn same_explanation(got: &Explanation, want: &Explanation) -> Result<(), String> {
    if got.suggested != want.suggested {
        return Err(format!(
            "explained drugs {:?} != {:?}",
            got.suggested, want.suggested
        ));
    }
    if got.community != want.community {
        return Err(format!(
            "community nodes {:?} / edges {:?} != nodes {:?} / edges {:?}",
            got.community.nodes, got.community.edges, want.community.nodes, want.community.edges
        ));
    }
    if got.edges != want.edges {
        return Err("signed explanation edges differ".to_string());
    }
    let counts = |e: &Explanation| {
        (
            e.internal_synergy,
            e.internal_antagonism,
            e.external_antagonism,
        )
    };
    if counts(got) != counts(want) {
        return Err(format!(
            "interaction counts {:?} != {:?}",
            counts(got),
            counts(want)
        ));
    }
    same_bits(
        "explanation SS",
        got.suggestion_satisfaction,
        want.suggestion_satisfaction,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dssddi_core::ServiceBuilder;
    use dssddi_data::{
        generate_chronic_cohort, generate_ddi_graph, ChronicConfig, DdiConfig, DrugRegistry,
    };
    use dssddi_kb::Severity;
    use dssddi_tensor::Matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A small fitted service with its KB and a handful of held-out
    /// patients.
    fn small_world() -> (DecisionService, KnowledgeBase, Patients) {
        let registry = DrugRegistry::standard();
        let mut rng = StdRng::seed_from_u64(5);
        let ddi = generate_ddi_graph(&registry, &DdiConfig::default(), &mut rng).unwrap();
        let cohort = generate_chronic_cohort(
            &registry,
            &ddi,
            &ChronicConfig {
                n_patients: 60,
                ..Default::default()
            },
            &mut rng,
        )
        .unwrap();
        let drug_features = Matrix::rand_uniform(registry.len(), 8, -0.1, 0.1, &mut rng);
        let observed: Vec<usize> = (0..45).collect();
        let service = ServiceBuilder::fast()
            .hidden_dim(8)
            .epochs(3, 3)
            .fit_chronic(&cohort, &observed, &drug_features, &ddi, &mut rng)
            .unwrap();
        let kb = KnowledgeBase::from_ddi_graph(service.ddi_graph(), service.registry()).unwrap();
        let held_out: Vec<usize> = (45..60).collect();
        let patients = Patients {
            features: held_out
                .iter()
                .map(|&p| cohort.features().row(p).to_vec())
                .collect(),
            medications: held_out.iter().map(|&p| cohort.drugs_of(p)).collect(),
            ids: held_out,
        };
        (service, kb, patients)
    }

    #[test]
    fn oracle_catches_one_flipped_bit() {
        let (service, kb, patients) = small_world();
        let expected = Expected::compute(&service, &kb, &patients, 3..=4, true).unwrap();

        // An answer from a second service loaded from the same container
        // passes, bit for bit.
        let reloaded =
            DecisionService::load_with_embedded_registry_bytes(&service.to_container_bytes())
                .unwrap();
        let answer = reloaded
            .suggest_with_kb(&patients.suggest(2, 4), Some(&kb))
            .unwrap();
        let want = expected.suggest(2, 4).unwrap();
        assert_eq!(same_suggestion(&answer, want), Ok(()));

        // One flipped score bit is caught.
        let mut flipped = answer.clone();
        flipped.drugs[1].score = f32::from_bits(flipped.drugs[1].score.to_bits() ^ 1);
        assert!(same_suggestion(&flipped, want).is_err());

        // So is one flipped bit of Suggestion Satisfaction, and a dropped
        // community edge.
        let mut flipped = answer.clone();
        flipped.suggestion_satisfaction =
            f64::from_bits(flipped.suggestion_satisfaction.to_bits() ^ 1);
        assert!(same_suggestion(&flipped, want).is_err());
        let mut dropped = answer;
        dropped.explanation.community.edges.pop();
        assert!(same_suggestion(&dropped, want).is_err());
    }

    #[test]
    fn oracle_catches_a_changed_severity() {
        let (service, kb, patients) = small_world();
        let expected = Expected::compute(&service, &kb, &patients, 3..=3, true).unwrap();
        let (patient, want) = (0..patients.ids.len())
            .find_map(|p| {
                expected
                    .check(p)
                    .filter(|r| !r.antagonistic.is_empty() || !r.synergistic.is_empty())
                    .map(|r| (p, r))
            })
            .expect("a held-out prescription with a graded pair");
        let answer = service
            .check_prescription_with_kb(&patients.check(patient), Some(&kb))
            .unwrap();
        assert_eq!(same_report(&answer, want), Ok(()));
        let mut changed = answer;
        let pair = changed
            .antagonistic
            .first_mut()
            .or(changed.synergistic.first_mut())
            .unwrap();
        pair.severity = if pair.severity == Severity::Major {
            Severity::Minor
        } else {
            Severity::Major
        };
        assert!(same_report(&changed, want).is_err());
    }
}
