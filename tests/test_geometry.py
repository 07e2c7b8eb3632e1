import re

import numpy as np
import pytest

import roelab as rl
from roelab.geometry import (_GENERATORS, GOLDEN, GeometryError, PointSet, fibonacci_chain,
                             min_spacing)


def brute_pairwise_min(coords):
    d = np.linalg.norm(coords[:, None, :] - coords[None, :, :], axis=-1)
    np.fill_diagonal(d, np.inf)
    return d.min()


def fibonacci_oracle_count(lo, hi):
    """Direct enumeration of the strip-projection condition over Z^2."""
    norm = np.sqrt(GOLDEN ** 2 + 1)
    width = (1 + GOLDEN) / norm
    count = 0
    bound = int(np.ceil(max(abs(lo), abs(hi)) + width + 2))
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            par = (a * GOLDEN + b) / norm
            perp = (-a + b * GOLDEN) / norm
            if 0 <= perp < width and lo <= par < hi:
                count += 1
    return count


class TestGenerate:
    def test_square_window(self):
        ps = rl.generate({"kind": "square", "window": [[0, 4], [0, 4]]})
        assert ps.n == 16
        assert np.allclose(ps.coords, np.round(ps.coords))

    def test_perturbed_distances(self):
        ps = rl.generate({"kind": "perturbed", "window": [[0, 4], [0, 4]],
                          "jitter": 0.2, "seed": 7})
        assert ps.n == 16
        assert brute_pairwise_min(ps.coords) >= 0.6

    def test_perturbed_deterministic(self):
        a = rl.generate({"kind": "perturbed", "window": [[0, 4], [0, 4]],
                         "jitter": 0.2, "seed": 7})
        b = rl.generate({"kind": "perturbed", "window": [[0, 4], [0, 4]],
                         "jitter": 0.2, "seed": 7})
        assert np.array_equal(a.coords, b.coords)

    def test_excessive_jitter_rejected(self):
        with pytest.raises(GeometryError):
            rl.generate({"kind": "perturbed", "window": [[0, 4], [0, 4]],
                         "jitter": 0.5, "seed": 0})

    def test_fibonacci_against_enumeration(self):
        ps = rl.generate({"kind": "fibonacci", "window": [[0, 20]]})
        assert ps.n == fibonacci_oracle_count(0.0, 20.0)
        spacings = np.diff(np.sort(ps.coords[:, 0]))
        ratios = np.unique(np.round(spacings, 9))
        assert len(ratios) == 2
        assert ratios.max() / ratios.min() == pytest.approx(GOLDEN, abs=1e-9)

    def test_ammann_beenker_delone(self):
        ps = rl.generate({"kind": "ammann_beenker", "window": [[0, 8], [0, 8]]})
        assert ps.n > 50
        cert = rl.certify_delone(ps)
        assert cert.valid and cert.r > 0.1 and cert.R < 2.0

    def test_unknown_kind(self):
        with pytest.raises(GeometryError):
            rl.generate({"kind": "nope", "window": [[0, 4]]})

    def test_json_roundtrip(self):
        ps = rl.generate({"kind": "perturbed", "window": [[0, 4], [0, 4]],
                          "jitter": 0.1, "seed": 3})
        back = PointSet.loads(ps.dumps())
        assert np.allclose(back.coords, ps.coords)
        assert np.allclose(back.window, ps.window)
        # the "points" generator passes its own `kind` key to the decoder
        listed = rl.generate({"kind": "points", **ps.to_json()})
        assert np.array_equal(listed.coords, ps.coords)
        with pytest.raises(GeometryError, match="unknown point-set key 'seed'"):
            rl.generate({"kind": "points", "seed": 3, **ps.to_json()})

    # one valid descriptor of every generator kind, with its optional keys
    DESCRIPTORS = {
        "chain": {"window": [[0, 4]]},
        "square": {"window": [[0, 4], [0, 4]]},
        "cubic": {"window": [[0, 2], [0, 2], [0, 2]]},
        "honeycomb": {"window": [[0, 4], [0, 4]]},
        "perturbed": {"window": [[0, 4], [0, 4]], "jitter": 0.2, "seed": 7, "dim": 2},
        "fibonacci": {"window": [[0, 10]]},
        "ammann_beenker": {"window": [[0, 4], [0, 4]]},
        "points": {"dim": 1, "window": [[0, 2]], "points": [[0, 0.5], [1, 1.5]],
                   "density": 1.0},
    }

    @pytest.mark.parametrize("kind", sorted(_GENERATORS))
    def test_declared_keys(self, kind):
        """A key the generator does not declare, such as a misspelt seed, is
        refused; a missing required key is named.  Before, the first was
        dropped silently and the second was a bare KeyError."""
        spec = {"kind": kind, **self.DESCRIPTORS[kind]}
        assert rl.generate(spec).n > 0
        with pytest.raises(GeometryError, match="unknown point-set key 'sede'"):
            rl.generate({**spec, "sede": 1})
        _, required, optional = _GENERATORS[kind]
        assert set(spec) == {"kind", *required, *optional}
        for key in required:
            with pytest.raises(GeometryError, match=f"{kind} generator needs the key '{key}'"):
                rl.generate({k: v for k, v in spec.items() if k != key})


    @pytest.mark.parametrize("key, value, message", [
        ("seed", "x", "seed 'x' is not an integer at least 0"),
        ("seed", -1, "seed -1 is not an integer at least 0"),
        ("seed", 1.5, "seed 1.5 is not an integer at least 0"),
        ("seed", True, "seed True is not an integer at least 0"),
        ("window", "ab", "window 'ab' is not an array of numbers"),
        ("window", [[0, 4], [0, np.inf]], "window [[0.0, 4.0], [0.0, inf]] is not finite"),
        ("window", [[0, 4], [4, 4]], "window must have positive extent"),
        ("jitter", -0.2, "jitter -0.2 is not a number at least 0"),
        ("jitter", "0.2", "jitter '0.2' is not a number at least 0"),
        ("jitter", np.nan, "jitter nan is not a number at least 0"),
        ("dim", "x", "dim 'x' is not 1, 2 or 3"),
    ])
    def test_perturbed_values_are_checked(self, key, value, message):
        """Each value of a perturbed descriptor is checked: a string seed was
        numpy's bare TypeError, a string window a bare ValueError, and a
        negative jitter was accepted."""
        spec = {"kind": "perturbed", **self.DESCRIPTORS["perturbed"], key: value}
        with pytest.raises(GeometryError, match=f"^{re.escape(message)}$"):
            rl.generate(spec)

    @pytest.mark.parametrize("key, value, message", [
        ("window", "ab", "window 'ab' is not an array of numbers"),
        ("window", [[0, np.inf]], "window [[0.0, inf]] is not finite"),
        ("points", [[0, "a"], [1, 1.5]], "point coordinates are not rows of numbers"),
        ("points", [1, 2], "points [1, 2] is not a list of rows [id, x, ...]"),
        ("points", None, "points None is not a list of rows [id, x, ...]"),
        ("points", [[0, 0.5], ["a", 1.5]], "point id 'a' is not an integer"),
        ("points", [[0, 0.5], [True, 1.5]], "point id True is not an integer"),
    ])
    def test_listed_points_values_are_checked(self, key, value, message):
        spec = {"kind": "points", **self.DESCRIPTORS["points"], key: value}
        with pytest.raises(GeometryError, match=f"^{re.escape(message)}$"):
            rl.generate(spec)


class TestCertifyDelone:
    def test_unit_square_closed_form(self, square16):
        cert = rl.certify_delone(square16)
        assert cert.r == pytest.approx(0.5)
        assert cert.R == pytest.approx(np.sqrt(2) / 2, abs=1e-12)
        assert cert.valid

    def test_unit_chain_closed_form(self, chain200):
        cert = rl.certify_delone(chain200)
        assert cert.r == pytest.approx(0.5)
        assert cert.R == pytest.approx(0.5, abs=1e-12)

    def test_coincident_points_invalid(self):
        ps = PointSet(1, [[0.5], [0.5]], [[0, 1]])
        cert = rl.certify_delone(ps)
        assert not cert.valid and cert.r == 0.0

    def test_single_point_flagged(self):
        ps = PointSet(1, [[0.5]], [[0, 1]])
        cert = rl.certify_delone(ps)
        assert cert.valid and cert.R is None and cert.notes

    def test_perturbed_packing_bound(self):
        ps = rl.generate({"kind": "perturbed", "window": [[0, 6], [0, 6]],
                          "jitter": 0.2, "seed": 11})
        cert = rl.certify_delone(ps)
        assert cert.r >= 0.3
        assert 2 * cert.r == pytest.approx(brute_pairwise_min(ps.coords))


class TestPenumbra:
    def test_zero_radius_empty(self, square16):
        assert len(rl.penumbra(square16, [0, 1, 2], 0.0)) == 0

    def test_tiny_radius_contains_subset(self, square16):
        got = rl.penumbra(square16, [0, 5], 1e-9)
        assert set(got) == {0, 5}

    def test_halfplane_column(self):
        ps = rl.generate({"kind": "square", "window": [[-3, 4], [0, 4]]})
        right = np.where(ps.coords[:, 0] >= 0)[0]
        got = set(rl.penumbra(ps, right, 1.5)) - set(right)
        assert got == set(np.where(ps.coords[:, 0] == -1)[0])

    def test_empty_subset(self, square16):
        assert len(rl.penumbra(square16, [], 2.0)) == 0

    def test_matches_brute_force(self, square20):
        rng = np.random.default_rng(5)
        subset = rng.choice(square20.n, size=12, replace=False)
        for R in (0.7, 1.3, 2.9):
            d = np.linalg.norm(square20.coords[:, None, :]
                               - square20.coords[None, subset, :], axis=-1).min(axis=1)
            assert np.array_equal(rl.penumbra(square20, subset, R), np.where(d < R)[0])

    def test_monotone_in_radius(self, square20):
        subset = [0, 7, 31]
        prev = set()
        for R in (0.5, 1.0, 2.0, 4.0):
            cur = set(rl.penumbra(square20, subset, R))
            assert prev <= cur
            prev = cur


class TestPartition:
    def test_unit_column_interface(self):
        ps = rl.generate({"kind": "square", "window": [[-3, 4], [0, 4]]})
        part = rl.partition_halfspace(ps, [1, 0], 0.0, thickness=1.0)
        assert set(part.interface_ids) == set(np.where(ps.coords[:, 0] == 0)[0])
        assert set(part.plus_ids) | set(part.minus_ids) == set(range(ps.n))
        assert set(part.interface_ids) <= set(part.plus_ids)

    def test_cut_outside_window(self, square16):
        with pytest.raises(GeometryError):
            rl.partition_halfspace(square16, [1, 0], 40.0)

    @pytest.mark.parametrize("normal", [[1.0], [1.0, 0.0, 0.0], [[1.0, 0.0]]])
    def test_normal_must_match_the_dimension(self, square16, normal):
        with pytest.raises(GeometryError, match="cut normal has shape"):
            rl.partition_halfspace(square16, normal, 1.6)

    def test_tilted_cut_brute_force(self, square20):
        normal = np.array([np.cos(0.3), np.sin(0.3)])
        part = rl.partition_halfspace(square20, normal, 9.7, thickness=1.2)
        proj = square20.coords @ normal - 9.7
        assert np.array_equal(part.plus_ids, np.where(proj >= 0)[0])
        assert np.array_equal(part.minus_ids, np.where(proj < 0)[0])
        iface = np.where((proj >= 0) & (proj < 1.2))[0]
        assert np.array_equal(np.sort(part.interface_ids), iface)

    def test_default_thickness(self, square16):
        part = rl.partition_halfspace(square16, [1, 0], 1.6)
        assert part.thickness == pytest.approx(2.0)  # 2 x packing diameter


class TestGroupAction:
    def test_c4_permutes_square(self, square16):
        act = rl.cyclic_rotation_action(square16, 4,
                                        center=square16.coords.mean(axis=0))
        assert act.order == 4
        # rotation about the lattice centroid maps the sample onto itself
        assert (act.site_permutation >= 0).all()
        for i in range(4):
            perm = act.site_permutation[i]
            assert sorted(perm) == list(range(square16.n))
        # composition: element 1 applied twice is element 2
        p1, p2 = act.site_permutation[1], act.site_permutation[2]
        assert np.array_equal(p1[p1], p2)

    def test_c3_on_triangular(self):
        ps = rl.generate({"kind": "honeycomb", "window": [[0, 8], [0, 8]]})
        # rotations map the lattice into itself only about a lattice point
        c = ps.coords[np.argmin(np.linalg.norm(ps.coords - ps.coords.mean(axis=0),
                                               axis=1))]
        act = rl.cyclic_rotation_action(ps, 3, center=c)
        matched = (act.site_permutation >= 0).mean()
        assert matched > 0.55  # losses are window-boundary truncation only
        i = act.site_permutation[1]
        ok = i >= 0
        img = ps.coords[i[ok]]
        src = ps.coords[np.where(ok)[0]]
        rot = np.array([[-0.5, -np.sqrt(3) / 2], [np.sqrt(3) / 2, -0.5]])
        assert np.allclose(img, (src - c) @ rot.T + c, atol=1e-9)
