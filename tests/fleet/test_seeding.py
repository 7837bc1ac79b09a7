"""Seed derivation: stability, path sensitivity, shard independence."""

from repro.fleet.seeding import derive_seed, session_seed, session_seeds


class TestDeriveSeed:
    def test_stable_across_calls(self):
        assert derive_seed(7, "video", 3) == derive_seed(7, "video", 3)

    def test_component_boundaries_matter(self):
        # "video", 31 must not collide with "video3", 1 etc.
        assert derive_seed(7, "video", 31) != derive_seed(7, "video3", 1)
        assert derive_seed(7, "video", 3) != derive_seed(7, "video3")

    def test_every_path_component_changes_the_seed(self):
        base = session_seed(7, "video", 3, "inputs")
        assert base != session_seed(8, "video", 3, "inputs")
        assert base != session_seed(7, "audio", 3, "inputs")
        assert base != session_seed(7, "video", 4, "inputs")
        assert base != session_seed(7, "video", 3, "jitter")

    def test_fits_in_32_bits(self):
        for i in range(64):
            assert 0 <= derive_seed(42, "t", i) < 2**32

    def test_known_value_pins_cross_process_stability(self):
        # crc32 of "7|fleet|video|3|inputs": a changed derivation scheme
        # silently breaks every committed baseline, so pin one value.
        import zlib

        expected = zlib.crc32(b"7|fleet|video|3|inputs")
        assert session_seed(7, "video", 3, "inputs") == expected

    def test_session_seeds_are_each_purposes_session_seed(self):
        # The shared prefix is checksummed once; every seed must still
        # be the one session_seed derives (component boundaries too).
        purposes = ("arrivals", "jitter", "switch", "inputs", "a|b", "")
        for root, tenant, index in (
            (7, "video", 3),
            (0, "", 0),
            (2**40, "x|y", 31),
            (1009, "adaptive-rijndael", 11),
        ):
            assert session_seeds(root, tenant, index, *purposes) == tuple(
                session_seed(root, tenant, index, p) for p in purposes
            )
