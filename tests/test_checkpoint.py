import numpy as np
import pytest

from restyle.autodiff import parameter
from restyle.checkpoint import (
    atomic_write,
    config_hash,
    load_checkpoint,
    params_hash,
    restore_params,
    save_checkpoint,
)


@pytest.fixture
def params():
    rng = np.random.default_rng(0)
    return {"emb": parameter(rng.normal(size=(4, 3))),
            "out.w": parameter(rng.normal(size=(3, 2))),
            "out.b": parameter(np.zeros(2))}


class TestCheckpoint:
    def test_roundtrip(self, params, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, {"seed": 7, "config_hash": "abc"})
        header, arrays = load_checkpoint(path)
        assert header == {"seed": 7, "config_hash": "abc"}
        for name, p in params.items():
            np.testing.assert_array_equal(arrays[name], p.values)

    def test_byte_stable_across_saves(self, params, tmp_path):
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(a, params, {"seed": 1})
        save_checkpoint(b, params, {"seed": 1})
        assert a.read_bytes() == b.read_bytes()

    def test_restore_into_model(self, params, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, {})
        fresh = {name: parameter(np.zeros_like(p.values)) for name, p in params.items()}
        _, arrays = load_checkpoint(path)
        restore_params(fresh, arrays)
        for name in params:
            np.testing.assert_array_equal(fresh[name].values, params[name].values)

    def test_mismatched_names_rejected(self, params, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, {})
        _, arrays = load_checkpoint(path)
        with pytest.raises(ValueError, match="mismatch"):
            restore_params({"other": parameter(np.zeros(2))}, arrays)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_params_hash_orders_by_name(self, params):
        h1 = params_hash(params)
        h2 = params_hash(dict(reversed(list(params.items()))))
        assert h1 == h2

    def test_config_hash_stable_under_key_order(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})

    def test_truncated_file_rejected_by_name(self, params, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, {"seed": 7})
        blob = path.read_bytes()
        # cut inside the version, the header, a name, a shape and the last array
        for cut in (10, 20, len(blob) - 8 * 6 - 30, len(blob) - 60, len(blob) - 1):
            short = tmp_path / f"short{cut}.ckpt"
            short.write_bytes(blob[:cut])
            with pytest.raises(ValueError, match=rf"{short.name}.*truncated"):
                load_checkpoint(short)

    def test_failed_save_keeps_previous_file(self, params, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, {"seed": 1})
        before = path.read_bytes()

        class Unwritable:
            @property
            def values(self):
                raise RuntimeError("simulated crash mid-write")

        with pytest.raises(RuntimeError, match="mid-write"):
            save_checkpoint(path, {**params, "z.last": Unwritable()}, {"seed": 2})
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]

    def test_overlapping_writers_each_install_whole_content(self, tmp_path):
        path = tmp_path / "manifest.json"
        with atomic_write(path) as outer:
            outer.write(b"outer " * 100)
            with atomic_write(path) as inner:
                inner.write(b"inner")
            assert path.read_bytes() == b"inner"
            outer.write(b"end")
        assert path.read_bytes() == b"outer " * 100 + b"end"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json"]

    def test_written_file_has_the_umask_mode(self, params, tmp_path):
        import os

        plain = tmp_path / "plain"
        plain.write_bytes(b"")
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, {"seed": 7})
        assert os.stat(path).st_mode & 0o777 == os.stat(plain).st_mode & 0o777
