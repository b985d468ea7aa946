"""Toolkit for partially ordered nondeterministic finite automata:
classification, decision procedures, subsequence machinery, extremal
constructions and hardness reductions."""

from .core import (Automaton, AutomatonClass, AutomatonKind, CapacityError,
                   Decision, FormatError, accepts, classify,
                   complete_automaton, depth, parse_automaton, parse_word,
                   serialize_automaton)
from .decision import Strategy, equivalent, includes, is_universal
from .dre import is_dre_definable
from .extremal import ExtremalReport, build_a, build_w, verify_extremal
from .ops import (INFINITE, complement, count_language_size, determinize,
                  is_empty, minimize, product_intersection)
from .reductions import (CnfFormula, Dtm, SimulationResult, SimulationStatus,
                         cnf_to_rponfa, dtm_to_ponfa, encode_run,
                         parse_dimacs, parse_dtm, sat_brute_force, simulate)
from .subseq import (class_dfa, enumerate_minimal_representatives,
                     max_representative_length, sub_k)
from .triviality import (RExpression, TrivialityVerdict, is_k_r_trivial,
                         is_r_trivial, r_expression_to_automaton,
                         rponfa_to_r_expressions)

__all__ = [
    "Automaton", "AutomatonClass", "AutomatonKind", "CapacityError",
    "Decision", "FormatError", "accepts", "classify", "complete_automaton",
    "depth", "parse_automaton", "parse_word", "serialize_automaton",
    "Strategy", "equivalent", "includes", "is_universal",
    "is_dre_definable",
    "ExtremalReport", "build_a", "build_w", "verify_extremal",
    "INFINITE", "complement", "count_language_size", "determinize",
    "is_empty", "minimize", "product_intersection",
    "CnfFormula", "Dtm", "SimulationResult", "SimulationStatus",
    "cnf_to_rponfa", "dtm_to_ponfa", "encode_run",
    "parse_dimacs", "parse_dtm", "sat_brute_force", "simulate",
    "class_dfa", "enumerate_minimal_representatives",
    "max_representative_length", "sub_k",
    "RExpression", "TrivialityVerdict", "is_k_r_trivial", "is_r_trivial",
    "r_expression_to_automaton", "rponfa_to_r_expressions",
]
