import json

import numpy as np
import pytest

from bsz2d.lex_order import lex_system
from bsz2d.moment_oracle import oracle_for
from bsz2d.ortho import LEX, REVLEX, TOTAL, OrthoSystem, index_sequence
from bsz2d.poly_core import CHEB_U, BivariatePoly
from bsz2d.total_order import build_total_vector
from bsz2d.weights import product_spec

SPEC = product_spec([0.5, -0.3])


@pytest.fixture(scope="module")
def systems():
    return {
        "lex": lex_system(SPEC, 5, 4),
        "revlex": lex_system(SPEC, 4, 5, REVLEX),
        "total": oracle_for(SPEC).gram_schmidt(TOTAL, 5),
        "vector": build_total_vector(SPEC, 6),
    }


@pytest.mark.parametrize("name", ["lex", "revlex", "total", "vector"])
class TestTensor:
    def test_entries_are_trimmed_views_of_the_tensor(self, systems, name):
        system = systems[name]
        s = system.coeffs.shape[1]
        assert system.coeffs.shape == (len(system.indices()), s, s)
        assert s == max(max(p.coeffs.shape) for _, p in system.entries)  # the smallest square
        for k, (idx, p) in enumerate(system.entries):
            assert idx == system.indices()[k]
            assert p.coeffs.shape == BivariatePoly(CHEB_U, p.coeffs).coeffs.shape  # nothing left to trim
            assert np.shares_memory(p.coeffs, system.coeffs)
            rows, cols = p.coeffs.shape
            assert not np.any(system.coeffs[k, rows:]) and not np.any(system.coeffs[k, :, cols:])
            assert system.poly(idx) is p

    def test_json_round_trip(self, systems, name):
        system = systems[name]
        text = system.to_json()
        back = OrthoSystem.from_dict(json.loads(text))
        assert back.to_json() == text
        assert np.array_equal(back.coeffs, system.coeffs) and np.array_equal(back.norms, system.norms)

    def test_slice_first(self, systems, name):
        system = systems[name]
        pos = {TOTAL: lambda idx: sum(idx), LEX: lambda idx: idx[0], REVLEX: lambda idx: idx[1]}[system.ordering]
        n = max(pos(idx) for idx in system.indices())
        sub = system.slice_first(n)
        keep = [k for k, idx in enumerate(system.indices()) if pos(idx) == n]
        assert sub.indices() == [system.indices()[k] for k in keep]
        assert sub.norms.tolist() == [system.norms[k] for k in keep]
        for k, (_, p) in zip(keep, sub.entries):
            assert np.array_equal(p.coeffs, system.entries[k][1].coeffs)


def test_missing_index_raises_key_error(systems):
    with pytest.raises(KeyError):
        systems["lex"].poly((9, 9))


@pytest.mark.parametrize("m", [3, None])
def test_unknown_ordering_raises_value_error(m):
    # the ordering is checked first, so a missing m is not blamed for it
    with pytest.raises(ValueError, match="unknown ordering 'Lex': use total, lex or revlex"):
        index_sequence("Lex", 3, m)
    with pytest.raises(ValueError, match="unknown ordering 'Lex'"):
        oracle_for(product_spec([0.5])).gram_schmidt("Lex", 3, m)


def test_orderings_match_a_sort_by_their_keys():
    keys = {
        TOTAL: lambda idx: (idx[0] + idx[1], idx[0]),
        LEX: lambda idx: idx,
        REVLEX: lambda idx: (idx[1], idx[0]),
    }
    for n in range(7):
        total = [(i, j) for i in range(n + 1) for j in range(n + 1) if i + j <= n]
        assert index_sequence(TOTAL, n) == sorted(total, key=keys[TOTAL])
        for m in range(7):
            window = [(i, j) for i in range(n + 1) for j in range(m + 1)]
            for ordering in (LEX, REVLEX):
                assert index_sequence(ordering, n, m) == sorted(window, key=keys[ordering])


def test_system_without_norms():
    entry = {"index": [0, 0], "poly": {"basis": "chebU", "coeffs": [[1.0]]}}
    system = OrthoSystem.from_dict({"ordering": LEX, "entries": [entry]})
    assert len(system.norms) == 0 and len(system.slice_first(0).norms) == 0
    assert system.to_dict()["norms"] == []


def test_entry_format_and_monomial_input():
    # an entry is {"index", "poly": {"basis", "coeffs"}}, written in the chebU basis;
    # an entry written in the monomial basis reads to its chebU coefficients
    system = OrthoSystem(LEX, [(1, 1)], np.array([[[0.5, 0.0], [0.125, 0.5]]]))
    want = {"index": [1, 1], "poly": {"basis": "chebU", "coeffs": [[0.5, 0.0], [0.125, 0.5]]}}
    assert system.to_dict()["entries"] == [want]
    entry = {"index": [1, 1], "poly": {"basis": "monomial", "coeffs": [[0.5, 0.0], [0.25, 2.0]]}}
    back = OrthoSystem.from_dict({"ordering": LEX, "entries": [entry]})
    assert back.to_dict() == system.to_dict()
    assert np.array_equal(back.coeffs, system.coeffs)
