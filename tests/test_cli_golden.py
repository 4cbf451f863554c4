"""Golden SHA-256 digests of every output file of every CLI command.

The digests were recorded from the CLI before its commands became one table
with one streaming writer, so a changed output byte fails here.  Each case
runs twice: once with ``--out``, checking the exit code and the digest of the
output and of its side file, and once to stdout, which must carry the same
bytes in the same order.
"""
import csv
import hashlib
import io
import json
import random

import pytest

from cnifkit import stats
from cnifkit.cli import _bundled_rows, component_columns, main, round_away

HEADER = "id,name,categories,items_t,items_t1,items_t2,cited_in_window,refs_total,refs_jcr,refs_jcr_in_window"


def journal_csv(seed: int, n: int, violations: bool = False) -> str:
    """A seeded journal CSV; with ``violations`` every fifth record breaks a
    cross-field rule of ``validate``."""
    rnd = random.Random(seed)
    lines = [HEADER]
    for i in range(n):
        cats = ";".join(rnd.sample("ABCDEF", rnd.choice((1, 1, 2, 3))))
        counts = [rnd.randint(0, 50), rnd.randint(1, 60), rnd.randint(1, 60), rnd.randint(1, 300)]
        if rnd.random() < 0.1:
            refs = ["", "", ""]
        else:
            total = rnd.randint(50, 2000)
            jcr = rnd.randint(0, total)
            refs = [total, jcr, rnd.randint(0, jcr)]
            if violations and i % 5 == 0:
                refs = [total, total + 1, 0] if i % 10 == 0 else [total, jcr, jcr + 1]
        lines.append(",".join(map(str, [f"j{i:03d}", f"Journal {i}", cats, *counts, *refs])))
    return "\n".join(lines) + "\n"


def _input_cases():
    for fmt in ("csv", "json"):
        yield f"validate-violations-{fmt}", ["validate", "--input", "{bad}", "--format", fmt], 1
        yield f"validate-clean-{fmt}", ["validate", "--input", "{good}", "--format", fmt], 0
        for command in (["indicators"], ["cnif"], ["rank", "--scorer", "if"],
                        ["rank", "--scorer", "cnif"], ["gap"], ["decompose"]):
            name = "-".join(command[::2])
            yield f"{name}-{fmt}", command + ["--input", "{good}", "--format", fmt], 0
    for digits in ("0", "5"):
        for command in (["indicators"], ["cnif"], ["rank", "--scorer", "cnif"], ["gap"], ["decompose"]):
            name = "-".join(command[::2])
            yield f"{name}-digits{digits}", command + ["--input", "{good}", "--digits", digits], 0


def _fixture_cases():
    for edition in ("science", "social", "all"):
        yield f"decompose-{edition}", ["decompose", "--edition", edition], 0
    yield "decompose-json", ["decompose", "--format", "json"], 0
    yield "decompose-digits0", ["decompose", "--edition", "social", "--digits", "0"], 0
    yield "decompose-digits5", ["decompose", "--edition", "science", "--digits", "5"], 0
    for fmt in ("csv", "json"):
        for command in ("corr", "ks", "hist"):
            yield f"stats-{command}-{fmt}", ["stats", command, "--edition", "science", "--format", fmt], 0
        yield f"stats-cluster-{fmt}", ["stats", "cluster", "--edition", "social", "--format", fmt], 0
        yield f"stats-cluster-k-{fmt}", ["stats", "cluster", "--edition", "social", "--k", "4", "--format", fmt], 0
        for edition in ("all", "science"):  # the largest Ward runs: 227 and 172 leaves
            argv = ["stats", "cluster", "--edition", edition, "--k", "6", "--format", fmt]
            yield f"stats-cluster-{edition}-k6-{fmt}", argv, 0
        for table, code in (("1", 0), ("3", 0), ("4", 1)):
            yield f"reproduce-table{table}-{fmt}", [f"reproduce-table{table}", "--format", fmt], code
    yield "stats-pca-json", ["stats", "pca", "--edition", "science", "--format", "json"], 0
    for edition in ("social", "all"):
        yield f"stats-pca-{edition}-json", ["stats", "pca", "--edition", edition, "--format", "json"], 0
    yield "stats-corr-digits0", ["stats", "corr", "--edition", "social", "--digits", "0"], 0
    yield "stats-corr-json-digits5", ["stats", "corr", "--format", "json", "--digits", "5"], 0
    yield "stats-ks-lilliefors", ["stats", "ks", "--edition", "social", "--lilliefors"], 0
    yield "stats-ks-alpha", ["stats", "ks", "--alpha", "0.01", "--digits", "5"], 0
    yield "stats-hist-digits0", ["stats", "hist", "--edition", "social", "--digits", "0"], 0
    yield "stats-cluster-height", ["stats", "cluster", "--edition", "science", "--height", "40"], 0


def _digits_cases():
    """Every command that takes --digits, at its smallest and largest value.
    ``stats corr --digits 17`` is left out: its last bits depend on the BLAS
    kernel, so ``test_stats_corr_digits17_formats_the_raw_matrix`` checks it."""
    commands = (["indicators"], ["decompose"], ["cnif"], ["rank", "--scorer", "if"],
                ["rank", "--scorer", "cnif"], ["gap"])
    argvs = [(c, c + ["--input", "{good}"]) for c in commands]
    argvs += [(["fixture", "decompose"], ["decompose"])]
    argvs += [(["stats", c], ["stats", c]) for c in ("corr", "ks", "hist")]
    for digits in ("0", "17"):
        for fmt in ("csv", "json"):
            for words, argv in argvs:
                if words == ["stats", "corr"] and digits == "17":
                    continue
                name = "-".join(w for w in words if not w.startswith("--"))
                yield f"digits{digits}-{name}-{fmt}", argv + ["--digits", digits, "--format", fmt], 0


CASES = {
    name: (argv, code)
    for name, argv, code in (*_input_cases(), *_fixture_cases(), *_digits_cases())
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden-inputs")
    paths = {}
    for key, violations in (("good", False), ("bad", True)):
        paths[key] = root / f"{key}.csv"
        paths[key].write_text(journal_csv(11, 40, violations), encoding="utf-8")
    return {k: str(p) for k, p in paths.items()}


def run_case(name, inputs, out_dir, capsys):
    """Run one case to files and to stdout; return its exit code, the
    {--out suffix: bytes} it wrote and the bytes it printed."""
    argv, _ = CASES[name]
    argv = [a.format(**inputs) for a in argv]
    out = out_dir / "out"
    code = main(argv + ["--out", str(out)])
    capsys.readouterr()
    files = {p.name[len("out"):]: p.read_bytes() for p in sorted(out_dir.iterdir())}
    assert main(argv) == code
    printed = capsys.readouterr().out.encode("utf-8")
    return code, files, printed


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


EXPECTED = {
    "cnif-csv": {
        "": "f12c70e301659383c7cb7c4036f78dfcc603c6e0c78d2b8ca7e82b2363426dff",
    },
    "cnif-digits0": {
        "": "93040aa653116b2e3fdd3436a70ea024d5854716edd16ea2fc290bfeb67a2f71",
    },
    "cnif-digits5": {
        "": "987ca7f4935b3134718b050bfbef13a4029a5c7a1435451dbc1e0a6528fb3641",
    },
    "cnif-json": {
        "": "78b5b44e68fd90dd13bdae1d06e4888a140c1b5be20ecbbf11e2d1da038ee65e",
    },
    "decompose-all": {
        "": "0ea4830cb60dc462e0b1ebd50927298a353ed536644bb03962cf0a537a47e2c6",
    },
    "decompose-csv": {
        "": "2988c67dcfb167349d2e3af987b123689c903ae59c75ae1741bd0d47e3c5cb37",
    },
    "decompose-digits0": {
        "": "ff2cfbd6b8808f653918951c052dc8eb87ba839a7fc202491ca9b205cc28f20a",
    },
    "decompose-digits5": {
        "": "2eaded5e122ecb309e963c0f6d9e72bc4f890e405490175c7245c3c8fad6996b",
    },
    "decompose-json": {
        "": "a5e58aaf8fde88f9f1255aba9a5450f01f55c301fabd44c6718d2cdf8965f276",
    },
    "decompose-science": {
        "": "7e56e5641efdc77a7bbd62a1c3abca4fa1271666f3fb28ee920e6847a0ff6dd5",
    },
    "decompose-social": {
        "": "aa52424873f8a0faeb7e9377ee83005033b10a9830c1afc05b1b2772c7806c25",
    },
    "digits0-cnif-csv": {
        "": "93040aa653116b2e3fdd3436a70ea024d5854716edd16ea2fc290bfeb67a2f71",
    },
    "digits0-cnif-json": {
        "": "1d62d8d6421a32eed90fece12456fe2b59aad4618280b6e5e7e51d683ddcf05e",
    },
    "digits0-decompose-csv": {
        "": "6899f2aca5e9ae32df0f3a4d421d63bc9d254f61e25c1a11da834256543a1bd8",
    },
    "digits0-decompose-json": {
        "": "5da9d6478c7a8bf6d9dfdcfc4246b8897a1dc00e381bce429f536d75f88096ca",
    },
    "digits0-fixture-decompose-csv": {
        "": "488ab1605f8fce0411ffb7a4478bc37da34c973fe51b2b59d3ff06761b238d8f",
    },
    "digits0-fixture-decompose-json": {
        "": "4c053d129276911e818db657840d5fe485ac16fc6e8d8091d28f0abe6074b960",
    },
    "digits0-gap-csv": {
        "": "1497b144c85cbe56f021cbc8f05d9ffbde09e77526a7be2a0b8c897cc69cf353",
        ".summary": "4a6b77ee50c919b26011a20feeb1a0ca2bb4da7c62b251c8d4052ef68595e558",
    },
    "digits0-gap-json": {
        "": "19d16dba99996c1a4c650b844007e260626d4d16b19e633b3b4085aa64277d0d",
        ".summary": "e2826c51a191adb7c236f5851b0aedbe2cecf77b4d528cb7f50f34264862552d",
    },
    "digits0-indicators-csv": {
        "": "1afd4781fcd1224112aaf8047c1401c90963f1cb53d7dc90c093aab79286f7b6",
    },
    "digits0-indicators-json": {
        "": "58bf5b3f80cd5e5b013884ce70bfdd6bab0615e0d1e0dc99db011054d3ae9525",
    },
    "digits0-rank-cnif-csv": {
        "": "2672436b32dced9557c645794cd5a47b6ebb1b2d4fc1f5bd758b6eeb8d365fa8",
    },
    "digits0-rank-cnif-json": {
        "": "3af4c77ea42a2f49dc6acef351a3fe5e4bf537a10759e9448f10e377375fb10e",
    },
    "digits0-rank-if-csv": {
        "": "6dd6641260b651ebb75ac2b49a4ffe6fcdc90941d4de42729e25cd16477eb377",
    },
    "digits0-rank-if-json": {
        "": "903e6da694012776c2d568bc51e1d707d639aec8ff81136cb6cb545e865b5fd3",
    },
    "digits0-stats-corr-csv": {
        "": "e7dc12b8be3dcde5214857ef12c76c6779d85ba781a27cd204437eb39148aefc",
    },
    "digits0-stats-corr-json": {
        "": "a302886fcd61cf8e092350a01bfdf0af3faef4ea3767bad4a5abdc72f9238328",
    },
    "digits0-stats-hist-csv": {
        "": "5d57b970c556a3f6b851cbacaf39b25b7f5ef4192321ee7777ecc292a096fba8",
    },
    "digits0-stats-hist-json": {
        "": "8c830121bb2d604521ee9ec630e2b615484d91c6a4df2da3657014776f29dac3",
    },
    "digits0-stats-ks-csv": {
        "": "6b735f5549d42d1fc43aad3115048e4eb5ec7435c3520cf7a7791f45fde33cb6",
    },
    "digits0-stats-ks-json": {
        "": "796141f52442817ed12007370efe5f6efb66afc789dde5879ebe06b9b2dd30b5",
    },
    "digits17-cnif-csv": {
        "": "d2b749bfd019ce36e28f97aec808cabdedb06c1723c55cef3063890e836b9872",
    },
    "digits17-cnif-json": {
        "": "12ed35dcead0436d41fd29a2f18027f977d52d1791ddc2659b77b70f92b54722",
    },
    "digits17-decompose-csv": {
        "": "3dac92ac4bb856a0b3308fd00c295615d7ed9e82d272770f1c353a38ef2c2b10",
    },
    "digits17-decompose-json": {
        "": "236ff907d9e05908699d82ce04c862e934432cf7fd1a3ea308998512d0e2df1f",
    },
    "digits17-fixture-decompose-csv": {
        "": "a35d6f2dfbd6452be170daaf177c93a5881e7071e2072ad24b7a054046368b71",
    },
    "digits17-fixture-decompose-json": {
        "": "cd4f34da042211c1be7319f87f38c6aae8ff521633569867654b73f150238b41",
    },
    "digits17-gap-csv": {
        "": "36fa95fc67feadc557463e05b228f583f287ed58930f0c306f7fe2916dbab3e6",
        ".summary": "c81a749a677bc039751e755309316767922cfbd69fcb64e05144bc412a19f1c3",
    },
    "digits17-gap-json": {
        "": "2c1c2d800c2fe28882065c4196c64e201056f59beb35b30e378d7cc58facf2cc",
        ".summary": "a76a63694f9b884a939770c5f8fb35db7475e4a2e3a7c6ec85e7df1c47a93a14",
    },
    "digits17-indicators-csv": {
        "": "6e4beb5c07e504d32f144effb473097547781032113a788c256759190a8d188b",
    },
    "digits17-indicators-json": {
        "": "1e8b66ee90f97f8461596b6798f9ef6bcbce32513a5bd9a2cd3f9df6ed31c4b5",
    },
    "digits17-rank-cnif-csv": {
        "": "9a474be60afd19a409e5f0cb667317dd73c0116e5239f10a3c8c5bf622bf2183",
    },
    "digits17-rank-cnif-json": {
        "": "8a123b1fa6f9b8b6db56b1c0224a0fb01be5e63f09a9e08dfbe6d13e794d3146",
    },
    "digits17-rank-if-csv": {
        "": "909f0dcc98c89f2140fc7ab74becf5078334b98fab454fc62e86b30116bbe440",
    },
    "digits17-rank-if-json": {
        "": "52ae513757153f47ddacf1dd5c5b899e566a00fc28a8482e44022f89f46ba8ca",
    },
    "digits17-stats-hist-csv": {
        "": "bd4b601eee4d94007305a61dc75814634ce086c5db21819cebd0ccb335aae636",
    },
    "digits17-stats-hist-json": {
        "": "349ac56ef62b549bc4d06e9f9f2852c201492676785fc66eff5a484c8a0d4047",
    },
    "digits17-stats-ks-csv": {
        "": "a20f7484f67e2a1fdbc4723774b530e05e2d36676befecf2800fb0ac2a08d03c",
    },
    "digits17-stats-ks-json": {
        "": "9e57977c6d8ad036973ace51658cf0fa9b20bd5f34a3b7c81b9a9f3dd59bf83c",
    },
    "gap-csv": {
        "": "2fbfd823e21a138b73cfbfbf6d88ef14ffbe00a1841165964ad71f6e478d460f",
        ".summary": "8de95d2d2d805731b2f0f2136c34a82d3c9d1deb24daeddd4cc4b81009ad62aa",
    },
    "gap-digits0": {
        "": "1497b144c85cbe56f021cbc8f05d9ffbde09e77526a7be2a0b8c897cc69cf353",
        ".summary": "4a6b77ee50c919b26011a20feeb1a0ca2bb4da7c62b251c8d4052ef68595e558",
    },
    "gap-digits5": {
        "": "f94eff24f7c1b42f9f29a48a404c68f86179b97edbe581e7de2f66e2ffc23f65",
        ".summary": "80b6f75b28276527eabe4d37dd2b1972be452284151fa7c618c6f7e4a7f5b5b9",
    },
    "gap-json": {
        "": "b9018f74907bab4b4184704558e935631a4a8cd56c8ee06e9c4a9ea07e7e9735",
        ".summary": "587ad03e5e0ed45ff9f65fecd2e0e31295eb7a1543bdfcb124357e4b18684957",
    },
    "indicators-csv": {
        "": "378987b962320deb7c0421463466dce58ac92973669450ab54ea87e0308851d3",
    },
    "indicators-digits0": {
        "": "1afd4781fcd1224112aaf8047c1401c90963f1cb53d7dc90c093aab79286f7b6",
    },
    "indicators-digits5": {
        "": "8adc7524d02362612b0f329b1adf4437ba67f974ee78ff56ab65a1c6f6d1e6e7",
    },
    "indicators-json": {
        "": "4dbebae1dfb9d51fa2c0a82035cc13bbb1f3eb63271d9fe6c0698590c6c6aeb3",
    },
    "rank-cnif-csv": {
        "": "a2d33783fa5f9b6462c16e78247c8ae1db91c3a1d9038be1bb6ffd8f8ce48c20",
    },
    "rank-cnif-digits0": {
        "": "2672436b32dced9557c645794cd5a47b6ebb1b2d4fc1f5bd758b6eeb8d365fa8",
    },
    "rank-cnif-digits5": {
        "": "43b42140a9b6d69bb88b3724435c762f03e118cdb4bef162c52fcf510d17ced0",
    },
    "rank-cnif-json": {
        "": "1818c9c737f2dc9f21dbe5f219733e8c432d5ec1c2b94a4db4b06d7c8c55de1f",
    },
    "rank-if-csv": {
        "": "a57ec69f4205e6813076e2cc4153129e84d21b7ab53b27e53d0e6fe778e6d162",
    },
    "rank-if-json": {
        "": "702a9cb3142c23b3af617a411687ecc34bb054d187fba2ae88811d3615d7eeab",
    },
    "reproduce-table1-csv": {
        "": "fb5c2ccc20c50e1af74b5f5eb58a46c8a39ec497cf8069ad120e092d7ef98555",
    },
    "reproduce-table1-json": {
        "": "2ac239b7d513d82b8d975d5f00142f2d09243d901ad323a96c31d391879018f0",
    },
    "reproduce-table3-csv": {
        "": "6890c48ded66acc073e8404bafbb403230876e5fb21a2efab7189ee4f01ff3e7",
    },
    "reproduce-table3-json": {
        "": "cbc501a849007fd0bfe71671b7c089099e09948831fba0c01235872fb517dc38",
    },
    "reproduce-table4-csv": {
        "": "925c3a390bd25df20fe60e8e3f7bdf8cce7c2e54cec765eed8d1670f0899436a",
    },
    "reproduce-table4-json": {
        "": "ad3e0847066bc3417508d3837e7ba6818ca376519bf3c6f005748bbe4bd95a36",
    },
    "stats-cluster-all-k6-csv": {
        "": "28a80472ffbd09e6742d781ff88d5f89a85a9ad8dbbdbd3fefe3356ee21769b1",
        ".clusters": "5fd50279459860bb99cdcd2746a7fe81e7b0eff3657025c4f68c5bfd33e74d9e",
    },
    "stats-cluster-all-k6-json": {
        "": "e50d5f19a808f054f2b998fd1ea03947360ad4d33b74a4dc78e27dff74814934",
        ".clusters": "2a1cc738fd731f3a377b13c848595b303b8434d1940ca6b9654b5b1aaa6d40b5",
    },
    "stats-cluster-csv": {
        "": "520eab34637f72570fb10e31d6cf4bf4b51c29419bff9a9414075a1acea4297d",
    },
    "stats-cluster-height": {
        "": "f47596970320f4376ebe510f0f67807867f9a78daff7d1d21174fca2b9948d09",
        ".clusters": "18c8a52a5db4334cab391e8279cab4f3f02a1ee1bc6cb739d43856652f9c2dd3",
    },
    "stats-cluster-json": {
        "": "9b65439c65deb3f42c2e6534168c0d106b79f4198382370d1471e4a5faf4c008",
    },
    "stats-cluster-k-csv": {
        "": "520eab34637f72570fb10e31d6cf4bf4b51c29419bff9a9414075a1acea4297d",
        ".clusters": "da716a92b257e77a1fc67b6ccd0d8858fc15162e6338135ebe68bf36241cff8c",
    },
    "stats-cluster-k-json": {
        "": "9b65439c65deb3f42c2e6534168c0d106b79f4198382370d1471e4a5faf4c008",
        ".clusters": "373589d7f5642b1266aecb6ca07de89ab30f835f709916e05aa14808d173cfbb",
    },
    "stats-cluster-science-k6-csv": {
        "": "f47596970320f4376ebe510f0f67807867f9a78daff7d1d21174fca2b9948d09",
        ".clusters": "b104947e89b3006052d1b41c20692cf9fcaaf6a23c224cbac031e4d42bf68c69",
    },
    "stats-cluster-science-k6-json": {
        "": "e0ef05a200296b4c00e9a2fd607dac69aad625bccee75580a6112d594fdd5abd",
        ".clusters": "5f32b59e9d793a7bfd01d6639256e39096d9c350c33c09286da2d4c02c4ae842",
    },
    "stats-corr-csv": {
        "": "5af893ec8148164d8d1051b624641484f176e2067a7dd46ab556493ac3952a92",
    },
    "stats-corr-digits0": {
        "": "39d2732e0a2e91de21ce0a859f1acbc6f67c7fd9b628feda250946481e72af65",
    },
    "stats-corr-json": {
        "": "f9ed0f24caa6dcd8e692041691f506d301712d922e6e4367fcb325c5774237b6",
    },
    "stats-corr-json-digits5": {
        "": "15690627d4c9c246fb555ef6b63ab1faf5d2957e518366fab78ebea1b10cf31f",
    },
    "stats-hist-csv": {
        "": "ccbe88c64dc3a04833ea54c950bf4f1cee3b40a0d6b173d860accef4dfbc7518",
    },
    "stats-hist-digits0": {
        "": "cfcf88d6ce3f4d671fe93678b1527eb5064a0e87ab1d033156f1eb0c34ff71ed",
    },
    "stats-hist-json": {
        "": "37633ed5cf0d4538efce91692d7570f267752d86461862b1397247061b08e324",
    },
    "stats-ks-alpha": {
        "": "91155096c5f4e370c7d9ff90862b5b4128acee90b2429a7e45c96523205544f5",
    },
    "stats-ks-csv": {
        "": "7120a6fc9d6f1164751c0a658cce6d1d5b26d35a33ae48bf9df78c3a995a15e2",
    },
    "stats-ks-json": {
        "": "023a37fc257e5d26929989475b6ae542306a94e3f45b05d7e78054f9efdd3500",
    },
    "stats-ks-lilliefors": {
        "": "2e3bc3efabbe103965086a4c5027881b660cf6eb9dfb9a908c45973b35771713",
    },
    "stats-pca-all-json": {
        "": "6f7c65b558907d34df40f1f3b84c02fbb3da5bedd2a10811d12f7a7b66d76e69",
    },
    "stats-pca-json": {
        "": "c3303de7a7b9555234ce4e4d7835dc7ddc5ae1f64106c58ffe2827d1e1fa8959",
    },
    "stats-pca-social-json": {
        "": "1f6cc51569e1899d1c8de02c84c81b09e8648c2b4851028a6122d88f2a7f6c3f",
    },
    "validate-clean-csv": {
        "": "93fa70a31e7ecd4e8d0cc28fc5c00e89f7facc310a390a09ef5d0b5f62d69e2d",
    },
    "validate-clean-json": {
        "": "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
    },
    "validate-violations-csv": {
        "": "6171fb01549e330291f30d108ce095a054a4fe7655414c46860b26567940356d",
    },
    "validate-violations-json": {
        "": "e97105da17a473b915530f3d17b725acc1b568527ffceef3d642f0acbba35d5a",
    },
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_digests(name, inputs, tmp_path, capsys):
    code, files, printed = run_case(name, inputs, tmp_path, capsys)
    assert code == CASES[name][1]
    assert {suffix: sha256(data) for suffix, data in files.items()} == EXPECTED[name]
    assert printed == b"".join(files.values())


def test_stats_pca_csv_is_usage_error(tmp_path, capsys):
    # stats pca writes JSON only, so it offers no other --format
    out = tmp_path / "out"
    assert main(["stats", "pca", "--edition", "science", "--format", "csv", "--out", str(out)]) == 2
    assert "invalid choice: 'csv'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_stats_corr_digits17_formats_the_raw_matrix(fmt, capsys):
    # the raw correlations' last bits depend on the BLAS kernel, so no digest
    # pins them: the output must be the raw matrix, rounded half away from zero
    matrix = stats.correlation_matrix(component_columns(_bundled_rows()))
    labels = matrix.labels
    rows = [(lab, [round_away(v, 17) for v in row]) for lab, row in zip(labels, matrix.values.tolist())]
    buf = io.StringIO()
    if fmt == "json":
        json.dump([{"variable": lab, **dict(zip(labels, row))} for lab, row in rows], buf, indent=2)
        buf.write("\n")
    else:
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["", *labels])
        writer.writerows([lab, *(f"{v:.17f}" for v in row)] for lab, row in rows)
    assert main(["stats", "corr", "--digits", "17", "--format", fmt]) == 0
    assert capsys.readouterr().out == buf.getvalue()
