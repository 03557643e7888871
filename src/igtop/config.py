"""Run configuration files.

INI syntax with two sections. ``[problem]`` picks a built-in problem by name
and may override its numeric parameters; ``[output]`` sets the artifact
directory and the snapshot interval, its key types those of
``OutputConfig``. Unknown sections, unknown keys, and unparseable values
are all collected and reported together in one error. A relative output
directory resolves against the config file's own directory. One file
serves every verb of ``igtop``; only ``run`` reads ``budget`` and
``move_limit``.

Example::

    [problem]
    name = cantilever
    budget = 200
    move_limit = 0.01

    [output]
    directory = out/cantilever
    snapshot_every = 25
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from pathlib import Path
from typing import get_type_hints

from .driver import ProblemSpec, get_problem
from .errors import ConfigError

_PROBLEM_KEYS = {k: t for k, t in get_type_hints(ProblemSpec).items()
                 if k in ("name", "nx", "ny", "rbf_nx", "rbf_ny", "budget",
                          "move_limit", "volume_fraction")}


@dataclass
class OutputConfig:
    directory: Path = Path("igtop-out")
    snapshot_every: int = 10


@dataclass
class RunConfig:
    problem: ProblemSpec
    output: OutputConfig


def _parse_section(cp, section, schema, problems):
    out = {}
    if not cp.has_section(section):
        return out
    for key, raw in cp.items(section):
        if key not in schema:
            known = ", ".join(sorted(schema))
            problems.append(f"[{section}] has unknown key {key!r} "
                            f"(known: {known})")
            continue
        try:
            out[key] = schema[key](raw)
        except ValueError as err:
            problems.append(f"[{section}] {key}: {err}")
    return out


def parse_config(text: str, base_dir: Path | None = None) -> RunConfig:
    # no header can name the empty default section, so a [DEFAULT] section
    # is reported like any other unknown one instead of merged into both
    cp = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        cp.read_string(text)
    except configparser.Error as err:
        raise ConfigError(f"config syntax: {err}") from None

    problems = []
    for section in cp.sections():
        if section not in ("problem", "output"):
            problems.append(f"unknown section [{section}]")
    prob_kw = _parse_section(cp, "problem", _PROBLEM_KEYS, problems)
    out_kw = _parse_section(cp, "output", get_type_hints(OutputConfig),
                            problems)

    name = prob_kw.pop("name", None)
    if name is None:
        problems.append("[problem] section must set 'name'")
    if cp.get("output", "directory", fallback=None) == "":
        problems.append("[output] directory needs a path, got an empty one")
    if problems:
        raise ConfigError(problems)

    problem = get_problem(name, **prob_kw)

    directory = out_kw.pop("directory", OutputConfig.directory)
    if base_dir is not None and not directory.is_absolute():
        directory = base_dir / directory
    output = OutputConfig(directory=directory, **out_kw)
    if output.snapshot_every < 0:
        raise ConfigError("[output] snapshot_every must be >= 0")
    return RunConfig(problem=problem, output=output)


def load_config(path) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config {path}: {err}") from None
    return parse_config(text, base_dir=path.parent)
