"""Key=value configuration parsing, validation, and hashing."""

import pytest

from pairtraj.config import RunConfig, load_config
from pairtraj.errors import ConfigError


class TestSet:
    def test_typed_assignment(self):
        cfg = RunConfig()
        cfg.set("k", "5")
        cfg.set("r", "1.5")
        cfg.set("normalize", "true")
        cfg.set("epsilons", "0.1,1.0,10")
        cfg.set("knots", "40,80")
        cfg.set("families", "parallel, crossing")
        assert cfg.k == 5
        assert cfg.r == 1.5
        assert cfg.normalize is True
        assert cfg.epsilons == (0.1, 1.0, 10.0)
        assert cfg.knots == (40, 80)
        assert cfg.families == ("parallel", "crossing")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig().set("granularity", "3")

    def test_bad_values_rejected(self):
        cfg = RunConfig()
        with pytest.raises(ConfigError):
            cfg.set("k", "three")
        with pytest.raises(ConfigError):
            cfg.set("normalize", "maybe")
        with pytest.raises(ConfigError):
            cfg.set("epsilons", "0.1,heaps")

    def test_empty_list_value(self):
        cfg = RunConfig()
        cfg.set("epsilons", "")
        assert cfg.epsilons == ()


class TestLoad:
    def test_reads_file_with_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# knobs\n"
            "k = 4\n"
            "\n"
            "method=geo1\n"
            "axis1_values = 2,3,4\n"
        )
        cfg = load_config(path)
        assert cfg.k == 4
        assert cfg.method == "geo1"
        assert cfg.axis1_values == (2.0, 3.0, 4.0)
        assert cfg.beta == RunConfig().beta  # untouched keys keep defaults

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.cfg")

    def test_reports_offending_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("k = 3\njust words\n")
        with pytest.raises(ConfigError, match="2"):
            load_config(path)

    def test_unknown_key_includes_location(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("mystery = 1\n")
        with pytest.raises(ConfigError, match="mystery"):
            load_config(path)


class TestValidate:
    def test_accepts_defaults(self):
        RunConfig().validate()

    def test_rejects_bad_fields(self):
        for key, value in [
            ("method", "pam"),
            ("kind", "shapes"),
            ("num_samples", "1"),
            ("r", "0.5"),
            ("seed", "-1"),
        ]:
            cfg = RunConfig()
            cfg.set(key, value)
            with pytest.raises(ConfigError):
                cfg.validate()


class TestHash:
    def test_stable_and_sensitive(self):
        a, b = RunConfig(), RunConfig()
        assert a.sha256() == b.sha256()
        b.set("k", "9")
        assert a.sha256() != b.sha256()

    def test_paths_do_not_change_the_hash(self):
        a, b = RunConfig(), RunConfig()
        b.set("input", "elsewhere.csv")
        b.set("output_dir", "another-place")
        assert a.sha256() == b.sha256()

    def test_render_lists_every_parameter(self):
        text = RunConfig().render()
        for key in ("k", "beta", "epsilons", "families", "normalize"):
            assert f"{key}=" in text
        assert "input=" not in text

    def test_every_field_round_trips_through_its_rendered_text(self):
        original = RunConfig(
            normalize=True, method="geo2", k=4, r=1.5, epsilons=(0.1, 2.0),
            axis1_values=(1.0, 2.5), knots=(10, 20, 30), families=("parallel",),
            noise=0.25,
        )
        copy = RunConfig()
        for line in original.render().splitlines():
            key, _, text = line.partition("=")
            copy.set(key, text)
        assert copy == original
        assert copy.sha256() == original.sha256()
