"""Pinned CLI reports: the stdout of a fixed command set, hashed per output format.

Each case runs `gammaring.cli.main` in process from a directory holding the
documents written by `write_documents`, so the input paths inside the reports
are the same relative names on every run.  The expected (exit code, sha256)
pairs were recorded before the verification kernel, the theorem pipelines and
the CLI handlers were merged across the two subjects, and pin those reports
byte for byte.  The two `theorem-budget` entries were re-pinned, by running
this case list, when `theorem` began to list each partial subject under a
`partial` key: their stdout used to be empty, because one partial subject
ended the whole command.  The eight `search-derivations` entries were
re-pinned, by running this case list, when an exact kernel solve replaced
the derivation search: `nodes` now counts the solve's work units, and the
budget-5 case runs out before its first listed map, where the search had
listed three.  The eight `search-iso` entries were re-pinned, by running
this case list, when search-iso began to list the pairs by a walk of their
stabilizer chain: `nodes` now counts the chain's leaf search nodes plus the
pairs listed (34 -> 12 on trivial(Z4), 1,569 -> 148 on matrix(2,2,2)), and
the budget-5 case lists the first five pairs in sorted order, where the
plain search listed one.  Exit codes, pair lists, and every other byte of
the complete entries, are unchanged.

The `theorem-hypothesis-budget` and `theorem-k4` entries were recorded, by
running this case list, while `check_hypotheses` still sampled past its
gate; they pinned that refusing before any scan leaves the report unchanged.
They and the two `theorem-budget` entries were re-pinned, by running this
case list, when one work meter began to charge each exact pass it runs in
place of a raw count: the n = 3 verification is decided by its m^2 g =
4,096 tuples of n = 2, and the hypotheses of a zero defect by |P_k| g = 256
lookups, so all six exit 0 with every subject confirmed, where they exited
3 with both subjects partial.  The `theorem-verify-budget` entries were
recorded before that change and pass unchanged: at budget 1,000 even the
n = 2 pass does not fit, and the pipeline refuses without drawing a sample.

The `hunt-trivial-budget` entries were recorded, by running this case list,
when the additive pair count began to come from a stabilizer chain over the
generators of M: trivial(Z2^4) and trivial(Z4 x Z2^3) are exact at budget
40,000, with 40,320 and 43,008 additive pairs.  The walk of End(M) it
replaced ran out of that budget on both, and the command exited 3.  The
other 50 entries did not change.

The `search-iso-m213-n3` entries were recorded, by running this case list,
before the walk of the pair chain began to visit only its branching
positions: the 168 pairs of matrix(2,1,3) at n = 3 pin a listing whose walk
passes several base levels.  The other 52 entries did not change.

The `-m0`, `-g0` and `-zero` entries were recorded, by running this case
list, before the additivity check began to add generators one residue at a
time: `axioms`, `hunt` and `search-derivations` on rings where M, Gamma or
both are the group of order 1, which has no nonzero residue.  The other 54
entries did not change.

Six entries were re-pinned, by running this case list, when the leaf search
began to assign every single-candidate value in one forced round, for no
unit, and to charge one unit per search run.  `nodes` of `search-iso-m222`
went from 148 to 155 and that of `search-iso-m213-n3` from 241 to 230, in
both formats; every other byte is unchanged.  The two `hunt-g0` entries
were empty, because the ring fails barnes-iii and that ended the command;
`hunt` now lists such a ring as an entry with its failed axiom's verdict,
keeps the other rings' entries, and exits 1.  The `hunt-g0-trivz4` entries
were added then, to pin that the valid ring's entry is kept.  The other 66
entries did not change.  The same change moved the chain counters pinned
in other files: matrix(2,2,2) 112 -> 119 at n = 2, 123 -> 157 at n = 3 and
117 -> 151 at n = 4, matrix(2,1,4) 370 -> 341 at n = 3 and matrix(2,2,3)
1,692 -> 2,910 at n = 2; the hunt budget thresholds of
matrix(2,1,2)xtrivial(Z2) 53 -> 50 and of matrix(2,1,1)xtrivial(Z2^2)
30 -> 28.

Every entry but the two `search-derivations-g0` ones, whose stdout is
empty, was re-pinned, by running this case list, when reports began to
echo in `options` only `input` and the options their command takes, and
JSON reports began to be written in the canonical GRDF form (sorted keys,
compact separators) in place of `indent=2`.  At the commit before and after,
every entry kept its exit code, every JSON report parsed to the same
value once `options` is removed, and every text report kept its lines but
the `options:` one.

Run this file as a script to print the EXPECTED entries of the current code.

`theorem --n 3` at the default budget is left out on purpose: its hypothesis
gate counts the exact scan's work, so it exits 0 where it used to exit 3.
"""

import contextlib
import hashlib
import io
import json

import numpy as np
import pytest

from gammaring import (DerivationTable, MapPair, build_matrix_ring, build_table_ring,
                       canonical_frame, canonical_frames, check_condition_iv,
                       direct_product, document_dict, emit_grdf, make_group,
                       trivial_ring)
from gammaring.cli import main


def _transpose_table(ring):
    """Index table of x -> x^T on a square matrix ring."""
    size = ring.descriptor["rows"]
    res = ring.m_group.residues.reshape(ring.m_order, size, size)
    return np.array([ring.m_group.index_of(tuple(res[x].T.reshape(-1)))
                     for x in range(ring.m_order)])


def _broken_ring():
    """Zero product on Z2 x Z2 except one entry: fails distributivity and associativity."""
    m, g = make_group([2, 2]), make_group([2])
    mu = np.zeros((4, 2, 4), dtype=np.int32)
    mu[1, 1, 1] = 2
    mu[2, 1, 3] = 1
    return m, g, mu


def write_documents(directory):
    """Write the case documents into `directory`."""
    m222 = build_matrix_ring(2, 2, 2)
    e11 = m222.m_group.index_of((1, 0, 0, 0))
    one = m222.m_group.index_of((1, 0, 0, 1))
    frame = canonical_frame(m222, e11, m222.gamma_group.index_of((1, 0, 0, 1)), one)
    ident = MapPair(m222, m222, np.arange(16), np.arange(16))
    zero = DerivationTable(m222, np.zeros(16, dtype=np.int32))
    trans = _transpose_table(m222)
    transpose = MapPair(m222, m222, trans, trans)
    not_derivation = DerivationTable(m222, trans)

    product = direct_product(m222, build_matrix_ring(2, 1, 1))
    failing = next(fr for fr in canonical_frames(product) if not check_condition_iv(fr).holds)
    prod_ident = MapPair(product, product, np.arange(32), np.arange(32))
    prod_zero = DerivationTable(product, np.zeros(32, dtype=np.int32))

    docs = {
        "m222-good.json": document_dict(m222, frames=[frame], maps=[ident],
                                        derivations=[zero]),
        "m222-bad.json": document_dict(m222, frames=[frame], maps=[ident, transpose],
                                       derivations=[zero, not_derivation]),
        "trivz4.json": document_dict(trivial_ring(make_group([4]), make_group([2]))),
        "m212.json": document_dict(build_matrix_ring(2, 1, 2)),
        "m213.json": document_dict(build_matrix_ring(2, 1, 3)),
        "product.json": document_dict(product, frames=[failing], maps=[prod_ident],
                                      derivations=[prod_zero]),
        "broken.json": document_dict(build_table_ring(*_broken_ring())),
        "triv2222.json": document_dict(trivial_ring(make_group([2, 2, 2, 2]), make_group([2]))),
        "triv4222.json": document_dict(trivial_ring(make_group([4, 2, 2, 2]), make_group([2]))),
        # M = 0; Gamma = 0 with 1.0.1 = 1, which fails barnes-iii; both 0
        "m0.json": document_dict(trivial_ring(make_group([]), make_group([2]))),
        "g0.json": document_dict(build_table_ring(make_group([2]), make_group([]),
                                                  [[[0, 0]], [[0, 1]]])),
        "zero.json": document_dict(trivial_ring(make_group([]), make_group([]))),
    }
    for name, doc in docs.items():
        (directory / name).write_text(emit_grdf(doc))


CASES = {
    "axioms-m222": ["axioms", "--input", "m222-good.json"],
    "axioms-broken": ["axioms", "--input", "broken.json"],
    "conditions-product": ["conditions", "--input", "product.json"],
    "verify-iso-exhaustive": ["verify-iso", "--input", "m222-bad.json"],
    "verify-iso-exhaustive-n3": ["verify-iso", "--input", "m222-bad.json", "--n", "3"],
    "verify-iso-sampled": ["verify-iso", "--input", "m222-bad.json", "--budget", "1000",
                           "--seed", "5"],
    "verify-derivation-exhaustive": ["verify-derivation", "--input", "m222-bad.json"],
    "verify-derivation-exhaustive-n3": ["verify-derivation", "--input", "m222-bad.json",
                                        "--n", "3"],
    "verify-derivation-sampled": ["verify-derivation", "--input", "m222-bad.json",
                                  "--budget", "1000", "--seed", "5"],
    "search-iso": ["search-iso", "--input", "trivz4.json"],
    "search-iso-m222": ["search-iso", "--input", "m222-good.json"],
    "search-iso-require-additive": ["search-iso", "--input", "trivz4.json",
                                    "--require-additive"],
    "search-iso-budget": ["search-iso", "--input", "trivz4.json", "--budget", "5"],
    "search-iso-m213-n3": ["search-iso", "--input", "m213.json", "--n", "3"],
    "search-derivations": ["search-derivations", "--input", "trivz4.json"],
    "search-derivations-m222-n3": ["search-derivations", "--input", "m222-good.json",
                                   "--n", "3"],
    "search-derivations-require-additive": ["search-derivations", "--input", "trivz4.json",
                                            "--require-additive"],
    "search-derivations-budget": ["search-derivations", "--input", "trivz4.json",
                                  "--budget", "5"],
    "theorem-success": ["theorem", "--input", "m222-good.json"],
    "theorem-failure": ["theorem", "--input", "m222-bad.json"],
    "theorem-family-failure": ["theorem", "--input", "product.json"],
    "theorem-budget": ["theorem", "--input", "m222-good.json", "--n", "3",
                       "--budget", "100000"],
    "theorem-hypothesis-budget": ["theorem", "--input", "m222-good.json", "--n", "2",
                                  "--budget", "10000"],
    "theorem-k4": ["theorem", "--input", "m222-good.json", "--n", "2", "--k", "4"],
    "theorem-verify-budget": ["theorem", "--input", "m222-good.json", "--n", "3",
                              "--budget", "1000"],
    "hunt": ["hunt", "--input", "trivz4.json", "--input", "m212.json",
             "--input", "m222-good.json"],
    "hunt-trivial-budget": ["hunt", "--input", "triv2222.json", "--input", "triv4222.json",
                            "--budget", "40000"],
    "hunt-g0-trivz4": ["hunt", "--input", "g0.json", "--input", "trivz4.json"],
}
for _doc in ("m0", "g0", "zero"):
    for _command in ("axioms", "hunt", "search-derivations"):
        CASES[f"{_command}-{_doc}"] = [_command, "--input", f"{_doc}.json"]


# "<case>/<format>": (exit code, sha256 of stdout)
EXPECTED = {
    "axioms-broken/json": (1, '92e15bceb338f90d539d335cd3590163d2199b9839e792bbaf339df21467aee7'),
    "axioms-broken/text": (1, '82b446fd8b10c2a03746ed5b43093e65b4199b2ee45994def96ba72f6afc41e6'),
    "axioms-g0/json": (1, '7f7e00c4ec240cba1e371d40ae3904d2810b3e55b1a5667c9b8c504016bd4510'),
    "axioms-g0/text": (1, '4354b85e58f4c88299066c25a8937608525bd7050fafe638802ac7f9aa74429e'),
    "axioms-m0/json": (0, 'f705c58eacc9fbf87bc2b584842c1121a432f595ab34105dd10e882546524e7d'),
    "axioms-m0/text": (0, '2d82b1643e861406c2246fbbd1fb1262518e70119878098a664e27be5951b8cc'),
    "axioms-m222/json": (0, '21ae0af3f7589fc14b16aaf80503261708a5037147ae03db169c7f90260d8acc'),
    "axioms-m222/text": (0, '62bde5086d10d953ff970eaabe082a02be03d4c37871ddaa7a43bc2fd09b8614'),
    "axioms-zero/json": (0, 'dfa2988f362aa9d478732bc7b19c2f8a8bd4586280d51c571ed901189fdfd187'),
    "axioms-zero/text": (0, '2eb87d5f15c4c999569814a6480440c7fc8ca8da5d8782521b26bd7074e36088'),
    "conditions-product/json": (1, 'be624e84e40bf50c1f3a51467baf3ffb75ca30061a53cb1a65c4f83229f4ea53'),
    "conditions-product/text": (1, '4451aedb9549acfe05be42847c691b58cd80bdafd99329f77d24f71571fd3c81'),
    "hunt-g0-trivz4/json": (1, '5fdf095dd509826882020e431cab07c3dfa63d955c7cb55cca187ff96f456ecb'),
    "hunt-g0-trivz4/text": (1, '54f6e92bd54966cb086a73fdce9ac4448fd908be9f5bb5c47425a9b924b41613'),
    "hunt-g0/json": (1, '854387bd61c00c04f86fa3ab38e6eb6f533a106da78e395f3263719c0209a0d3'),
    "hunt-g0/text": (1, '655517f4e2c6811b9495cd362a465993ae779e1eb8e65064395e963a776e120b'),
    "hunt-m0/json": (0, '90e0cee000790760ae4c704a407375c9ec7024b5a6847afcfc5b2c5b83fc9dd1'),
    "hunt-m0/text": (0, '94785e0aec0d883e48eddae449d72df03228e8a6b60bb5ddc905970b30e174b0'),
    "hunt-trivial-budget/json": (0, '8bdcef34fdb1e69071060584b5eb6eebe6f789c61d9ea1085887a0da7b893dd7'),
    "hunt-trivial-budget/text": (0, '21710720618e264dc95124d64c585f76080d449e1d8c8d79cd3b5396d65869d6'),
    "hunt-zero/json": (0, 'e49a75b34a151852d3bdc03b8ed1411f920e4ba6690a49ba326fcdda09b7b400'),
    "hunt-zero/text": (0, '983103dbbb39572b3df6f36ad56867bfc3db9e653f648502e6377a631d598315'),
    "hunt/json": (0, '5adece954a1b2fdef88624ef0ca6d0b7a52b3c722e20bac492518ef1a66608de'),
    "hunt/text": (0, '7f63750b68f37951be89a61cd97470a891ce5e0297f2be0df116c0a6bb19b063'),
    "search-derivations-budget/json": (3, '73181e2d385e3c42613e100ea9e4fe989e5b3e8b3ed65328d740150224de4fca'),
    "search-derivations-budget/text": (3, 'ac2c27f6fea20ed8d1fae1bcf4c94a11eeb238de15fe9e868474d3e2fc7bd8da'),
    "search-derivations-g0/json": (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    "search-derivations-g0/text": (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    "search-derivations-m0/json": (0, 'b17fd6f23820ee44766460614f9fc04932b485bf2ac25dc1bc91be6a45cdf343'),
    "search-derivations-m0/text": (0, '9515502fae868d5927a710c2395bf47c304bd946b01323a36fb2c1d138a84881'),
    "search-derivations-m222-n3/json": (0, 'fd64a0ed04f5a368f6376b6e0d013e0f46b16946f23bcb4e884fb09d7bc659b8'),
    "search-derivations-m222-n3/text": (0, '396d88b6c4ea890ea50d521a432830dab1f0d12cf36e032420995410e84a4b05'),
    "search-derivations-require-additive/json": (1, 'f7c9d4e16d8f7d72740fa2c0bce338a3a06337dc99e184f41bdfde2f2d7b7371'),
    "search-derivations-require-additive/text": (1, '8e6fd8f21565b15b2e06747934c9c0ac4d0ff037e23ad7949a501a20b0ba65ab'),
    "search-derivations-zero/json": (0, 'dac231a6abcf95a3d2bbb0ceac64ae05e98f3ea7e52085d8a5ea1d40c8d288b3'),
    "search-derivations-zero/text": (0, '37deddccbecd1a643b8566cfdf67edde9703fe71b80fb845bd8ec3e1d7e56a5c'),
    "search-derivations/json": (0, '46348ff22fa9a7655d428fcccb66e56307917f8c76da0ef859038719370cd275'),
    "search-derivations/text": (0, 'fdb0ac033f32c6a7488bd3048137ac81cd8e57596cdfa3fdeaf46a417082e2b3'),
    "search-iso-budget/json": (3, 'a9f414f95bfed0ffe0a8f9e0926cb732a49a70281fd3722c80863c658f86484c'),
    "search-iso-budget/text": (3, 'f00f1ef5806791112c32991d6a29fdc5fc23f414eda2498b74ee34c00a7074c6'),
    "search-iso-m213-n3/json": (0, '46be7e8eb1b507266dfe720559dd99b3edc2bd50a80f169ee722e80e92dd1367'),
    "search-iso-m213-n3/text": (0, '7d54a62db95d942a133757eb5a27b242e721dcdb1a40e1810f015340674c4ef1'),
    "search-iso-m222/json": (0, 'ced07302057a4168f2b9667330b7434be8d6d71e00ae51bf6e61305993d3d57b'),
    "search-iso-m222/text": (0, '4c15e17905cfacb6df04da6398a409166f9db1d65590ebfd644d68afefbac3e3'),
    "search-iso-require-additive/json": (1, '91a3a3cd8ea45993f0f5f87d66db33ef7b382ac186fce67c8cf0895964a84d89'),
    "search-iso-require-additive/text": (1, '1b0b5e142dcb66769390aba47aa54a237726c2dec1ec53dc2010a452445a62a4'),
    "search-iso/json": (0, '91151f06060922d8a3b532844831b3c3c4c823bf8195b06324eafbc0f448f771'),
    "search-iso/text": (0, '1c5070e4a6273798a93539acb07055b2fd19bd9253e5d9d44ec534c8c61664bd'),
    "theorem-budget/json": (0, '194f69e6acb2e65d484d5cfba2ba753eba7cdfa051fd14fc5bb6b4b58247e237'),
    "theorem-budget/text": (0, 'ee3e7b21cd7710857073a55b2c04f2b1f45c026a4266086fceabfed755d7c9d9'),
    "theorem-failure/json": (1, 'c189109db3bb398122d4ef318be5bd7c74d091f3c24cae9885e0f9ffa3b13560'),
    "theorem-failure/text": (1, '1f20d52cb503b23a4cad7481dc1422945d47e1f9bbd4450a1debe105fe0d0052'),
    "theorem-family-failure/json": (1, '1fd5ea8499e353302210435e6b404ac17f883fd1a45520d064d3085b071eb964'),
    "theorem-family-failure/text": (1, '308aa99f1d840738dfd457245cfddf1d57d276c3ea1cddb0909f9c8668cf474a'),
    "theorem-hypothesis-budget/json": (0, '45154219acfc487ef8b994e4a12c80184cbb8534cfb33ea39f91d5c80b0ff3c1'),
    "theorem-hypothesis-budget/text": (0, '98b85394d2290af75fe4b1697c93aef1e6e0f01b248ff823b9dbf8b8f9696350'),
    "theorem-k4/json": (0, '06890e8df099dda8aa62ca0c93c86ab4ed0303fc5e098b8377f54adb43303c8d'),
    "theorem-k4/text": (0, '899d26fa6d02024ca6aad89310943815a0c521292184a513bbade9068b16a3aa'),
    "theorem-success/json": (0, '1f8665d10fe47b0cf7c0768e33900ee0287187a1ad734a719fb529a0fe576086'),
    "theorem-success/text": (0, '05bfdba1b2106461bd6133d2f6a09d1bf56fa3d1c601793a63fec012b6fa29c4'),
    "theorem-verify-budget/json": (3, '2df1b99cf3e5f363d08dd6133a661ef20efa41456cdab4a2ee66d49580bc9db6'),
    "theorem-verify-budget/text": (3, '1a88124351a58ee4f0df991f0e7c65af1438ee32c49c83529ae0bde93ddfe7f7'),
    "verify-derivation-exhaustive-n3/json": (1, '66902448bdb3a99c291cd074a5152e883a461abae066f39d0a2fb4448254267f'),
    "verify-derivation-exhaustive-n3/text": (1, 'd778c65c800dcba5fb8edc53ac977508c5738773c089640dbafcff761e7647cd'),
    "verify-derivation-exhaustive/json": (1, 'b3153a9f155f5f75b4ef966e820db0db94f09087b504b4ab034ec92160008e66'),
    "verify-derivation-exhaustive/text": (1, '18058d62de94cb42da98291723b3d11b792784d4fbaa8a99b7a70d34e2b9a094'),
    "verify-derivation-sampled/json": (1, '237dcf47f795a8a4ac10eb8164dc177b6cc79b26c54023d03d885f6a0fbb8899'),
    "verify-derivation-sampled/text": (1, '0479fe685aa96dc6364dfb59d7f034212002043cd2d188561b1e1a211af47a86'),
    "verify-iso-exhaustive-n3/json": (1, '8c2b5d8b110a39e0962acdc0a10289cfdf1914152c450dcb33382eab5129c4f9'),
    "verify-iso-exhaustive-n3/text": (1, '1622812062c500e546b7606edb01569c4caec11f79eb368bb5289720de2fb5fe'),
    "verify-iso-exhaustive/json": (1, '7dbd05abee3dd38b1f56d14797904ecf4e56c38a2e4d1bbddd4c39e0a418a9c6'),
    "verify-iso-exhaustive/text": (1, 'd2c3c16ea560dcd27f4b2d1f7400d873618ed38881f4abadf6713c8bc57cdb64'),
    "verify-iso-sampled/json": (1, 'b1013a195079a6bab3ff8353ca30ff5af21963692c2753924a9b3813d6b473ba'),
    "verify-iso-sampled/text": (1, 'cba5ba8a2f93e1f0695cf46ca63cdad0f0581073cafe0e61c2666b2c70a3bc59'),
}


@pytest.fixture(scope="module")
def docs_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("pinned")
    write_documents(directory)
    return directory


def _stdout(name, fmt):
    """Exit code and stdout of one case, run from the documents directory."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(CASES[name] + ["--format", fmt])
    return code, out.getvalue()


def run_case(name, fmt):
    """Exit code and stdout hash of one case, run from the documents directory."""
    code, out = _stdout(name, fmt)
    return code, hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_pinned_stdout(name, fmt, docs_dir, monkeypatch):
    monkeypatch.chdir(docs_dir)
    assert run_case(name, fmt) == EXPECTED[f"{name}/{fmt}"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_pinned_json_report_is_canonical(name, docs_dir, monkeypatch):
    # a JSON report is the canonical GRDF serialization of its own value;
    # a command that ends without a report prints nothing
    monkeypatch.chdir(docs_dir)
    out = _stdout(name, "json")[1]
    assert out == "" or out == emit_grdf(json.loads(out))


if __name__ == "__main__":
    # print the EXPECTED entries of the current code, for re-pinning:
    #   PYTHONPATH=src python tests/test_cli_pinned.py
    import os
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        write_documents(pathlib.Path(tmp))
        os.chdir(tmp)
        for key in sorted(f"{name}/{fmt}" for name in CASES for fmt in ("json", "text")):
            print(f'    "{key}": {run_case(*key.split("/"))},')
