"""Finite gamma-ring computer algebra.

Construction and exhaustive verification of finite gamma rings, Peirce
decompositions relative to nontrivial idempotents, and the additivity
machinery for n-multiplicative isomorphisms and derivations: verification,
complete pair search, an exact kernel solve for derivations, defect maps, and
theorem-replay pipelines.
"""

from .errors import (BudgetExceededError, FrameValidationError, GammaRingError,
                     GRDFError, InternalInconsistencyError, PreconditionError)
from .groups import FiniteAbelianGroup, is_group_homomorphism, make_group
from .rings import (AxiomReport, GammaRing, IdempotentRecord, PrimenessReport,
                    UnityRecord, build_matrix_ring, build_table_ring,
                    check_barnes_axioms, check_nobusawa, direct_product,
                    find_idempotents, find_unities, is_prime, trivial_ring)
from .peirce import (ConditionReport, IdempotentFrame, MartindaleReport,
                     PeirceComponents, canonical_frame, canonical_frames,
                     check_condition_ii, check_condition_iii, check_condition_iv,
                     check_martindale_family, check_peirce_relations, custom_frame,
                     peirce_decompose, validate_frame)
from .multmaps import (DefectMap, DerivationTable, MapPair, SearchConfig,
                       SearchResult, VerifyReport, defect_of_derivation,
                       defect_of_iso, search_n_derivations,
                       search_n_multiplicative_isos, verify_additive,
                       verify_n_derivation, verify_n_multiplicative)
from .theorem import (ClaimTrace, HypothesisReport, PipelineReport, RingSurvey,
                      SurveyReport, TheoremVerdict, check_claims, check_hypotheses,
                      conclude_main_theorem, hunt_counterexamples, matrix_ring_family,
                      run_additivity_pipeline, run_derivation_pipeline,
                      trivial_ring_family)
from .grdf import GRDFDocument, document_dict, emit_grdf, load_grdf, parse_grdf

__version__ = "0.1.0"
