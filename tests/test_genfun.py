import json

import pytest
from hypothesis import given, strategies as st

from matchlab import genfun
from matchlab.cli import main
from matchlab.genfun import (
    C0,
    C1,
    C3,
    ONE,
    ZERO,
    GenPoly,
    binom,
    binomial_family,
    brute_genfun,
    closed_form_m2,
    closed_form_m6,
    genfun_routes,
    recurrence_check,
    standard_pair,
    transfer_genfun,
)
from reference import matchings, reference_report, standard_genfun

monomials = st.builds(
    GenPoly.monomial,
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=6),
    # coefficients past 2**64 check the arithmetic is exact at any width
    st.integers(min_value=1, max_value=2**70),
)
polys = st.lists(monomials, min_size=0, max_size=5).map(
    lambda ms: sum(ms, ZERO)
)


class TestGenPoly:
    def test_add_merges_terms(self):
        m = C1 * C1 * C3
        assert m + m == GenPoly.monomial(0, 2, 1, 2)

    def test_mul_monomials(self):
        assert C0 * (C3 * C3) == GenPoly.monomial(1, 0, 2)

    def test_mul_identity(self):
        p = GenPoly.monomial(1, 2, 3, 7) + C0
        assert p * ONE == p

    @given(polys, polys, polys)
    def test_ring_laws(self, p, q, r):
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p + ZERO == p
        assert p * ZERO == ZERO

    def test_no_zero_coefficients_stored(self):
        assert not GenPoly({(1, 1, 1): 0})

    def test_negative_coefficient_rejected(self):
        with pytest.raises(ValueError):
            GenPoly({(0, 0, 0): -1})

    def test_negative_exponent_from_json_rejected(self):
        # certificates are read back from outside the program
        with pytest.raises(ValueError, match="negative exponent"):
            GenPoly.from_json_terms([{"w": [-1, 0, 0], "c": 1}])

    @pytest.mark.parametrize(
        "poly,text",
        [
            (ZERO, "0"),
            (ONE, "1"),
            (GenPoly.monomial(1, 1, 2, 2), "2*c0*c1*c3^2"),
            (GenPoly.monomial(0, 2, 1), "c1^2*c3"),
            (
                GenPoly.monomial(0, 3, 2) + GenPoly.monomial(2, 0, 3),
                "c1^3*c3^2 + c0^2*c3^3",
            ),
        ],
    )
    def test_text_form(self, poly, text):
        assert poly.to_text() == text

    def test_json_round_trip(self):
        p = transfer_genfun(12, 2)
        blob = json.dumps(p.to_json_terms())
        assert GenPoly.from_json_terms(json.loads(blob)) == p

    def test_json_terms_sorted(self):
        p = transfer_genfun(14, 2)
        ws = [tuple(t["w"]) for t in p.to_json_terms()]
        assert ws == sorted(ws)


class TestTransferGenfun:
    @pytest.mark.parametrize(
        "n,text",
        [
            (6, "c1^2*c3"),
            (7, "2*c0*c1*c3^2"),
            (8, "c1^3*c3^2 + c0^2*c3^3"),
        ],
    )
    def test_base_cases_m2(self, n, text):
        assert transfer_genfun(n, 2).to_text() == text

    def test_preconditions(self):
        with pytest.raises(ValueError):
            transfer_genfun(7, 1)
        with pytest.raises(ValueError):
            transfer_genfun(9, 6)  # needs n >= m + 4

    @pytest.mark.parametrize("m,lo", [(2, 6), (6, 10)])
    def test_equals_brute_force(self, m, lo):
        for n in range(lo, 17):
            assert transfer_genfun(n, m) == brute_genfun(n, m)

    @pytest.mark.parametrize("n,m", [(9, 2), (12, 6), (13, 3), (11, 4)])
    def test_exponent_constraints(self, n, m):
        for (w0, w1, w3), c in transfer_genfun(n, m).items():
            assert c > 0
            assert w0 + w1 + w3 == n - 3
            assert 2 * w0 + w1 + 1 == w3 + m

    def test_total_equals_matching_count(self):
        for n, m in [(8, 2), (10, 6), (11, 2)]:
            count = sum(1 for _ in matchings(standard_pair(n, m)))
            assert transfer_genfun(n, m).total() == count

    @pytest.mark.parametrize("m,closed", [(2, closed_form_m2), (6, closed_form_m6)])
    def test_equals_the_reference_band_dp(self, m, closed):
        # past n = 23 brute stops, and transfer and closed both come from
        # the paper's derivation; the band DP reads only the pair
        for n in range(m + 4, m + 41):
            expected = standard_genfun(n, m)
            assert dict(transfer_genfun(n, m).items()) == expected
            assert dict(closed(n).items()) == expected

    @pytest.mark.parametrize("n,m", [(8, 2), (10, 6), (9, 3), (11, 4), (12, 5), (13, 7)])
    def test_reference_band_dp_equals_reference_enumeration(self, n, m):
        _, classes, _ = reference_report(standard_pair(n, m))
        expected = {}
        for key, size, _ in classes:
            counts = dict(key)
            expected[(counts.get(0, 0), counts.get(1, 0), counts.get(3, 0))] = size
        assert standard_genfun(n, m) == expected


class TestClosedForms:
    def test_m2_base_cases(self):
        assert closed_form_m2(6).to_text() == "c1^2*c3"
        assert closed_form_m2(7).to_text() == "2*c0*c1*c3^2"

    def test_m2_equals_transfer(self):
        for n in range(6, 21):
            assert closed_form_m2(n) == transfer_genfun(n, 2)

    def test_m6_equals_transfer(self):
        for n in range(10, 21):
            assert closed_form_m6(n) == transfer_genfun(n, 6)

    @pytest.mark.parametrize("n,m", [(167, 6), (169, 2)])
    def test_equals_transfer_past_64_bits(self, n, m):
        closed = closed_form_m2(n) if m == 2 else closed_form_m6(n)
        assert max(closed.coefficients()) > 2**64
        assert closed == transfer_genfun(n, m)

    def test_m6_base_equals_brute(self):
        assert closed_form_m6(10) == brute_genfun(10, 6)

    def test_m6_n11_all_coefficients_at_least_2(self):
        p = closed_form_m6(11)
        assert p == transfer_genfun(11, 6)
        assert all(c >= 2 for c in p.coefficients())

    def test_preconditions(self):
        with pytest.raises(ValueError):
            closed_form_m2(5)
        with pytest.raises(ValueError):
            closed_form_m6(9)


class TestBinomialFamily:
    def test_specializes_to_m2_closed_form(self):
        for n in range(6, 15):
            assert binomial_family(n, 0, 0, 2) == closed_form_m2(n)

    def test_n5_single_term(self):
        # constraints force (w0, w1, w3) = (1, 0, 1)
        assert binomial_family(5, 0, 0, 2) == GenPoly.monomial(1, 0, 1)

    def test_satisfies_recurrence(self):
        for d, e, m in [(0, 0, 2), (2, 0, 6), (1, 1, 3), (3, 2, 4)]:
            seq = [binomial_family(n, d, e, m) for n in range(m + 4, m + 12)]
            assert recurrence_check(seq)

    def test_empty_sum_is_zero(self):
        # no non-negative solution when the target is too small
        assert not binomial_family(3, 0, 0, 2)


class TestBinom:
    @pytest.mark.parametrize(
        "a,b,expected",
        [(4, 2, 6), (4, 0, 1), (4, 4, 1), (4, 5, 0), (4, -1, 0), (-1, 0, 0), (-2, -3, 0)],
    )
    def test_zero_conventions(self, a, b, expected):
        assert binom(a, b) == expected


class TestRecurrenceCheck:
    def test_transfer_sequences(self):
        assert recurrence_check([transfer_genfun(n, 2) for n in range(6, 13)])
        assert recurrence_check([transfer_genfun(n, 6) for n in range(10, 17)])

    def test_perturbed_sequence_fails(self):
        seq = [transfer_genfun(n, 2) for n in range(6, 13)]
        seq[4] = seq[4] + C0
        assert not recurrence_check(seq)

    def test_needs_four_terms(self):
        with pytest.raises(ValueError):
            recurrence_check([C0, C1, C3])


class TestBruteGenfun:
    def test_preconditions(self):
        with pytest.raises(ValueError):
            brute_genfun(5, 5)  # needs n > max(m, 3)
        with pytest.raises(ValueError):
            standard_pair(6, 1)

    def test_n6_single_matching(self):
        assert brute_genfun(6, 2) == GenPoly.monomial(0, 2, 1)

    def test_total_is_matching_count(self):
        for n, m in [(7, 2), (9, 2), (10, 6)]:
            count = sum(1 for _ in matchings(standard_pair(n, m)))
            assert brute_genfun(n, m).total() == count


class TestGenfunRoutes:
    @pytest.mark.parametrize(
        "n,m,methods",
        [
            (200, 2, ["transfer", "closed"]),
            (30, 5, ["transfer"]),
            (10, 6, ["transfer", "brute", "closed"]),
        ],
    )
    def test_only_the_methods_that_apply(self, n, m, methods):
        routes = genfun_routes(n, m)
        assert list(routes) == methods
        assert all(p == routes["transfer"] for p in routes.values())

    def test_each_command_runs_the_transfer_once(self, monkeypatch):
        # `genfun --check` prints a method taken from the routes, and a
        # coprime-to-6 certificate reads every route from one call
        calls = []
        transfer = genfun.transfer_genfun

        def counting(n, m):
            calls.append((n, m))
            return transfer(n, m)

        monkeypatch.setattr(genfun, "transfer_genfun", counting)
        assert main(["--format", "json", "genfun", "10", "6", "--check"]) == 0
        assert calls == [(10, 6)]
        assert main(["certify", "13"]) == 0
        assert calls == [(10, 6), (13, 2)]
