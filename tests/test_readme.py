"""The README's examples, run as written, so an API change cannot leave them stale."""

import pathlib
import re

from wavestab.cli import main
from wavestab.config import KEYS, LAWS
from wavestab.controllers import CERTIFIED

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(lang: str, after: str) -> str:
    """The first fenced ``lang`` block that follows the heading or text ``after``."""
    start = README.index(after)
    match = re.compile(rf"```{lang}\n(.*?)```", re.S).search(README, start)
    assert match is not None, f"no {lang} block after {after!r}"
    return match.group(1)


def test_library_sketch_verifies(capsys):
    namespace: dict = {}
    exec(compile(_block("python", "## Library sketch"), "README.md", "exec"), namespace)
    assert namespace["check"].ok
    assert capsys.readouterr().out.startswith("True ")


def test_ini_example_runs(tmp_path):
    p = tmp_path / "exp.ini"
    p.write_text(_block("ini", "Configs are flat INI files"))
    assert main(["run", "--config", str(p), "--out", str(tmp_path / "results")]) == 0


def test_key_table_lists_the_keys_config_knows():
    start = README.index("Every key, with its default")
    table = README[start:].split("\n\n")[1]
    keys, section = {}, None
    for row in table.splitlines()[2:]:
        sec_cell, key_cell = row.split("|")[1:3]
        section = re.findall(r"`\[(\w+)\]`", sec_cell)[0] if sec_cell.strip() else section
        keys.setdefault(section, set()).update(k.lower() for k in re.findall(r"`(\w+)`", key_cell))
    assert keys == {name: set(known) for name, known in KEYS.items()}


def test_pair_table_lists_the_certified_pairs():
    start = README.index("| controller  | family")
    table = README[start:].split("\n\n")[0]
    pairs = {}
    for row in table.splitlines()[2:]:
        law_cell, family_cell, cert_cell = row.split("|")[1:4]
        law = LAWS[re.findall(r"`(\w+)`", law_cell)[0]]
        pairs[(law, family_cell.strip().replace(" ", "_"))] = re.findall(r"`(check_\w+)`", cert_cell)
    assert pairs == {(law, family.value): [cert.gains.__name__] for (law, family), cert in CERTIFIED.items()}
