"""Backend selection: ``REPRO_BACKEND``, read by ``resolve_backend()`` alone."""

import os

import pytest

from repro.backend import ENV_VAR, SCALAR, VECTOR, resolve_backend
from repro.cli import main


class TestResolution:
    def test_default_is_vector(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert resolve_backend() == VECTOR

    def test_env_var_selects(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, SCALAR)
        assert resolve_backend() == SCALAR

    @pytest.mark.parametrize("value,expected", [("VECTOR", VECTOR), ("  Scalar ", SCALAR)])
    def test_names_normalized(self, monkeypatch, value, expected):
        monkeypatch.setenv(ENV_VAR, value)
        assert resolve_backend() == expected

    def test_env_value_normalized(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, " Vector\n")
        assert resolve_backend() == VECTOR

    def test_env_typo_raises_with_menu(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "vectro")
        with pytest.raises(ValueError) as excinfo:
            resolve_backend()
        message = str(excinfo.value)
        assert ENV_VAR in message
        assert VECTOR in message and SCALAR in message

    def test_takes_no_argument(self):
        """The environment is the one door: there is no explicit override."""
        with pytest.raises(TypeError):
            resolve_backend(SCALAR)


class TestCliBackendFromEnvironment:
    SIMULATE = [
        "simulate", "--shape", "6,6", "--faults", "2", "--messages", "3",
        "--interval", "5",
    ]
    SWEEP = [
        "sweep", "--shape", "6,6", "--faults", "2", "--messages", "3",
        "--seeds", "0", "--policies", "limited-global",
    ]

    def test_simulate_runs_on_env_backend(self, capsys, monkeypatch):
        monkeypatch.setenv(ENV_VAR, SCALAR)
        assert main(self.SIMULATE) == 0
        assert os.environ[ENV_VAR] == SCALAR
        assert "delivery_rate" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["simulate", "sweep", "serve", "throughput"])
    def test_backend_flag_is_gone(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--backend", "scalar"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --backend" in capsys.readouterr().err

    def test_backend_not_exported(self, capsys, monkeypatch):
        """The CLI reads the variable; it never sets it."""
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert main(self.SIMULATE) == 0
        assert ENV_VAR not in os.environ
        capsys.readouterr()

    @pytest.mark.parametrize("backend", [VECTOR, SCALAR])
    def test_sweep_backend_produces_identical_json(self, backend, capsys, monkeypatch):
        """The backend must never change results, only the implementation."""
        monkeypatch.setenv(ENV_VAR, backend)
        assert main(self.SWEEP) == 0
        if not hasattr(type(self), "_reference_json"):
            type(self)._reference_json = capsys.readouterr().out
        else:
            assert capsys.readouterr().out == self._reference_json

    def test_throughput_runs_on_env_backend(self, capsys, monkeypatch):
        monkeypatch.setenv(ENV_VAR, SCALAR)
        args = [
            "throughput", "--shape", "6,6", "--policy", "limited-global",
            "--rates", "0.01", "--faults", "2",
            "--warmup", "8", "--measure", "24", "--drain", "60",
        ]
        assert main(args) == 0
        assert "policy limited-global" in capsys.readouterr().out


class TestInvalidBackendIsUsageError:
    """A bad ``REPRO_BACKEND`` exits 2 naming the variable, before any cell
    runs, any file is written or any port is bound."""

    @pytest.fixture(autouse=True)
    def bogus(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "bogus")

    def _refused(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"{ENV_VAR}='bogus'" in err
        assert VECTOR in err and SCALAR in err

    def test_simulate(self, capsys, monkeypatch):
        def refuse(cell, **kwargs):
            raise AssertionError("no cell may run under a bad backend")

        monkeypatch.setattr("repro.cli.build_simulator", refuse)
        self._refused(capsys, TestCliBackendFromEnvironment.SIMULATE)

    def test_sweep(self, capsys, tmp_path):
        out = tmp_path / "sweep.json"
        cache = tmp_path / "cache"
        self._refused(
            capsys,
            TestCliBackendFromEnvironment.SWEEP
            + ["--cache-dir", str(cache), "--out", str(out)],
        )
        assert not out.exists() and not cache.exists()

    def test_serve(self, capsys, monkeypatch):
        def refuse(**kwargs):
            raise AssertionError("serve must not start under a bad backend")

        monkeypatch.setattr("repro.service.make_service", refuse)
        self._refused(capsys, ["serve", "--port", "0", "--no-cache"])
