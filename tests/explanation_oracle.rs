//! Oracle for the indexed explanation search: [`ExplanationIndex::explain`]
//! (the serving path, which reuses one precomputed structural graph and
//! truss decomposition) must equal [`explain_suggestion`] (which recomputes
//! both per call) field for field, on any drug set — repeats and unsorted
//! order included.
//!
//! Both sides run the same community search; the search itself is checked
//! against the slow reference implementation by the proptest in
//! `dssddi-graph`'s test module, and pinned on a fixed corpus by
//! `tests/explanation_golden.rs`.

use dssddi::core::ms_module::{explain_suggestion, ExplanationIndex};
use dssddi::core::MsModuleConfig;
use dssddi::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn indexed_explanations_equal_the_direct_search(
        graph_seed in 0u64..8,
        raw in proptest::collection::vec(0usize..10_000, 1..=6),
        repeat in 0usize..12,
    ) {
        let registry = DrugRegistry::standard();
        let mut rng = StdRng::seed_from_u64(graph_seed);
        let ddi = generate_ddi_graph(&registry, &DdiConfig::default(), &mut rng).unwrap();
        let mut drugs: Vec<usize> = raw.iter().map(|d| d % ddi.node_count()).collect();
        // About half the cases end on a repeated drug.
        let last = drugs.len() - 1;
        if repeat < last {
            drugs[last] = drugs[repeat];
        }

        let config = MsModuleConfig::default();
        let indexed = ExplanationIndex::build(&ddi).explain(&ddi, &drugs, &config).unwrap();
        let direct = explain_suggestion(&ddi, &drugs, &config).unwrap();

        prop_assert_eq!(&indexed.suggested, &direct.suggested);
        prop_assert_eq!(&indexed.community.nodes, &direct.community.nodes);
        prop_assert_eq!(&indexed.community.edges, &direct.community.edges);
        prop_assert_eq!(indexed.community.trussness, direct.community.trussness);
        prop_assert_eq!(indexed.community.diameter, direct.community.diameter);
        prop_assert_eq!(&indexed.edges, &direct.edges);
        prop_assert_eq!(indexed.internal_synergy, direct.internal_synergy);
        prop_assert_eq!(indexed.internal_antagonism, direct.internal_antagonism);
        prop_assert_eq!(indexed.external_antagonism, direct.external_antagonism);
        prop_assert_eq!(
            indexed.suggestion_satisfaction.to_bits(),
            direct.suggestion_satisfaction.to_bits()
        );
    }
}
