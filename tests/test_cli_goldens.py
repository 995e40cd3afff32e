"""Byte-exact goldens for the ``hooks`` command line.

Each line pins the exit code and the sha256 of stdout.  ``GOLDENS`` covers
``hooks verify injection``: every map id, each output format, the gamma
reports at t < 4 whose ``NotInCodomain`` violations no other test pins text
for, and the usage errors; ``STDERR`` pins the stderr of each of its lines
that writes any (gamma's ``warning:`` line below t = 4, the usage errors),
and every other line writes none.  ``SERIES_GOLDENS`` covers the series route:
``count`` by both methods, ``series`` for every name, ``verify identity``
(def at t = 2 fails), every ``verify theorem`` check in each format, the
oracle and thm13 checks at their default windows, and the complete t = 3
``thm12 --full`` run to 100 past the bound.  ``USAGE_GOLDENS`` pins what
argparse itself writes, at a fixed wrap width: the help screen of every
command level and the usage error of each kind of bad command line.
"""

import hashlib

import pytest

from hookcounts import cli

GOLDENS = [
    ("--map phi1 --t 2 --n-max 16 --format json", 0, "b867aa10e8b2cc15ccc55c5731e9995e77a165af5022b2643a4ddda96b31e87f"),
    ("--map phi2 --t 2 --n-max 36 --format csv", 0, "dcef9a19a9c333261bddf5fb079219c4edfcce279a3f10f3cb0c3a30c68eb56e"),
    ("--map phi3 --t 2 --n-max 40 --format human", 0, "d95410200f07491e7d5f0858d89388fe2cd53687f0f891d754280992bd737b85"),
    ("--map phi4 --t 2 --n-max 30 --format human", 0, "7e4a7ae4325d25cd4e171b00500fdbb78dca80ef0cb900031f5966445d67f394"),
    ("--map phi --t 3 --n-max 20 --format json", 0, "28a541273c04ed1a6b33d855b3a4a38d4dbbf68926a7f57693d35047267853e7"),
    ("--map phi --t 2 --n-max 24 --format csv", 0, "9b024368053ab54fa4282861653f12967d69d59b1d246ce566c65e988aacddc2"),
    ("--map gamma --t 2 --n-max 12 --format json", 1, "58ea45493bf6aaee4887096827b63b04b2673f794ef3e656574ad47836dabc57"),
    ("--map gamma --t 2 --n-max 24 --format human", 1, "7e5879644ffbf9f3e08ecaa01d76390aed17644aa9ba417c622331cfafdb6385"),
    ("--map gamma --t 3 --n-max 20 --format human", 0, "53586e3642a5d855f399f6cbece70521b30e93119fef58147cd1350420875e74"),
    ("--map gamma --t 4 --n-max 20 --format csv", 0, "2897318c3adad7a14d33e03a5ce035983a236c2875b4dd2aa522fa58e552a272"),
    ("--map epsilon --t 2 --n-max 20 --format human", 0, "f8ba2196fd2677f8bc7007b799b317dce59f0f1ce9f2e591e76e0279c9a60495"),
    ("--map tau --t 3 --n-max 15 --format json", 0, "8aab181acf891c755998354eee6bf30bcfd647bfdc1f1963fba56d1c60321237"),
    ("--map tau --t 5 --n-max 14 --format csv", 0, "bd6a64834684826b0427587c0c60f28edad4c0653118348260aed5b8cb5be03d"),
    # t = 4 builds the 5,2^m,1^2 case-4 image and stacks a second 2 in case 3
    ("--map tau --t 4 --n-max 30 --format json", 0, "b73ad1d6eb5040cab97253dfba795924307568b9e573f9f2a381a17b1f0c1a1b"),
    ("--map tau --t 6 --n-max 30 --format human", 0, "e4e3441194ab4919aaf789239b1ae1a28bcc9224eb73c67db0558d5e5b511820"),
    ("--map epsilon --t 3 --n-max 10", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("--map tau --t 2 --n-max 10", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("--map gamma --t 1 --n-max 5", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
]


GAMMA_T2 = "warning: gamma images need not stay 2-regular for t < 4\n"
STDERR = {
    "--map gamma --t 2 --n-max 12 --format json": GAMMA_T2,
    "--map gamma --t 2 --n-max 24 --format human": GAMMA_T2,
    "--map gamma --t 3 --n-max 20 --format human": (
        "warning: gamma images need not stay 3-regular for t < 4\n"
    ),
    "--map epsilon --t 3 --n-max 10": "error: epsilon is a t=2 map\n",
    "--map tau --t 2 --n-max 10": "error: tau needs t >= 3\n",
    "--map gamma --t 1 --n-max 5": "error: t must be at least 2\n",
}


@pytest.mark.parametrize("line,code,digest", GOLDENS, ids=[g[0] for g in GOLDENS])
def test_verify_injection_stdout_is_pinned(capsys, line, code, digest):
    assert cli.main(["verify", "injection", *line.split()]) == code
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest
    assert captured.err == STDERR.get(line, "")


SERIES_GOLDENS = [
    ("count --t 2 --k 1 --n 14 --method enum", 0, "6169555d9248be7e184f52250129b0d66c9932af74f4ac7bc716c20013fca362"),
    ("count --t 2 --k 1 --n 14 --method gf", 0, "6169555d9248be7e184f52250129b0d66c9932af74f4ac7bc716c20013fca362"),
    ("count --t 3 --k 2 --n 16 --method enum", 0, "c942bc47f4c98e6bda9666c229c1dced88eec8ee73383d7c75de3dc21a3941f4"),
    ("count --t 3 --k 2 --n 16 --method gf", 0, "c942bc47f4c98e6bda9666c229c1dced88eec8ee73383d7c75de3dc21a3941f4"),
    ("count --t 2 --k 3 --n 18 --method gf", 0, "eea8254c7500ba3de996aa8ad6af399183f04e17d4a8102fde539dbc93a90012"),
    ("count --t 4 --k 3 --n 15 --method gf", 0, "e595be81bf15aa95763adb4fc0ba525bbed1971cf5fccdf3a946cd37025fb2c9"),
    # the enumeration route's output for this line (13), so the series route
    # reaches k = 4 with nothing recorded from the code under test
    ("count --t 2 --k 4 --n 10 --method gf", 0, "1a252402972f6057fa53cc172b52b9ffca698e18311facd0f3b06ecaaef79e17"),
    ("series --name bt1 --t 2 --order 40", 0, "d403736a671f1be0856aa4631dc89e765a8508bf1b9820a3e967843794d62f33"),
    ("series --name bt2 --t 3 --order 40", 0, "0a5fa79214f04e0e883f409a4e639d58f6d7a86cbc44a85f2c1b80c5dbfec25d"),
    ("series --name bt3 --t 2 --order 40", 0, "9bcc88aa195050bd559ffc52a5aba39ef9e875962db66153ec3b52053bd2ed86"),
    ("series --name bt3 --t 4 --order 40", 0, "2630e0ecd1812dc2799c18e4af5547022910c29b3b81a4f83f624b768cf38055"),
    ("series --name A --t 3 --order 40", 0, "87cb1b1668b3456f9f184ba9c373a6ef557cd413ca7e4b143b3dbeacd3b2de19"),
    ("series --name B --t 2 --order 40", 0, "3e8fdce819a5262104beede514dfdec6c7d24c5abeafdcac7037320d81f43937"),
    ("series --name C --t 4 --order 40", 0, "0cb8ed90fe3c40148c94a19abecc7313a576bd14432d97cba85598a874b93e57"),
    ("series --name D --t 2 --order 40", 0, "5d499ed7268be873bfc6d19fb7b78f71d800985e0d56557dc19bcf0f3acf3760"),
    ("series --name E --t 2 --order 40", 0, "a99192a43b84e85e18681195d05445d17f6581d2b6ce70b2a72038086d1d164d"),
    ("series --name F --t 3 --order 40", 0, "b61982f7970716b53e745591bef2a9f1209862f47d48ddbb5a4ccd2a11d81590"),
    ("series --name D --t 1 --order 10", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("verify identity --which abc --t 2 --order 80 --format json", 0, "c2da88c1d40c1ec1cd8a67d60a25477bcb202d603b4e0d70afe4df1f3c2d1bda"),
    ("verify identity --which abc --t 5 --order 80 --format csv", 0, "088626d14b879f7d0382e12ebc6fb2d431eba5fb90a05f0bfd8051fff55291a4"),
    ("verify identity --which def --t 3 --order 80 --format human", 0, "a7e87f4a54155d2038f20ea0e0fd3207f62a4a233f394658fbd3b3f446c736c1"),
    ("verify identity --which def --t 2 --order 60 --format json", 1, "a8a504822658a2e51d96f28ace6462488e1d2fb4166bcc6449db30fdacfed413"),
    ("verify identity --which def --t 2 --order 60 --format human", 1, "b393e9d3bfb40d742daa99acd0c2927f30d8a4bf51dbac6977563919a947c5f6"),
    ("verify theorem --which thm12 --t 2 --order 400 --format json", 0, "2f75025e151278840c94920a1ce7f5f29a83008c885ed94422fd6bc6f37a599a"),
    ("verify theorem --which thm12 --t 3 --order 300 --format csv", 0, "98becb70e7ee6d95b5dfdc710ae335017a0934fa2d9adff345228f0592cf2e38"),
    ("verify theorem --which thm12 --t 4 --order 200 --format human", 0, "a074a240d33d238e6ddd315693d7ea7161bf42dfafdd2e85fa8d098a607cb71a"),
    ("verify theorem --which thm12 --t 3 --format json", 0, "9623aef46a22261292599938d135166fdb0f1dbfca80228618c2df94619d1b8c"),
    ("verify theorem --which thm12 --t 3 --full --format json", 0, "81887d78d64dd6fade173f6b00cbcf55f93d90df59efe3f5ac90059c3c98471f"),
    # thm12's order rule: 3100 at the default t = 2; --full keeps a larger
    # --order (3200) and raises a smaller one to 100 past the bound (3090)
    ("verify theorem --which thm12 --format json", 0, "8f05614fe1ed27b58591f5364cad3f44674d475a61a2b665e07e68a4bdf34501"),
    ("verify theorem --which thm12 --t 2 --full --order 3200 --format json", 0, "9203aeb744d426c3225035b05a6a89b3b27d64474593e7fd8456d24713a8620a"),
    ("verify theorem --which thm12 --t 2 --full --order 50 --format json", 0, "8608bea603667e1c47e1bef9183cd62133a0345f47cc7589d2a16ecae9ee2b2a"),
    ("verify theorem --which thm13 --t-max 4 --n-max 24 --format json", 0, "17e5b9c6260bfcdeac2a6695a74fd15eba073a8a0ef88ee82a20994c1506aa1f"),
    ("verify theorem --which thm13 --t-max 3 --n-max 20 --format csv", 0, "03304cdd0b3fe90d4f3cb442859326520166907fd365c68bd83b8cc8059da749"),
    ("verify theorem --which thm13 --t-max 5 --n-max 18 --format human", 0, "07cea146452a4af495bd755b3da04deba26792e5964a40942d000b5fe33bc9cd"),
    ("verify theorem --which d --t-max 3 --order 60 --format json", 0, "223bf72bc93e27c555ce818cf262c4e1685fb3752e7a7034b8e1b327e1de292a"),
    ("verify theorem --which d --format csv", 0, "a837de88c605e17b8d7afd75a8c933d48a9619e3ca641625263ab7b2564b2e0f"),
    ("verify theorem --which d --t-max 5 --order 120 --format human", 0, "be8c7cfa82948e21f53593e746dc5f9de02680edadb32e78c9bf639fa4505cce"),
    ("verify theorem --which e --t-max 3 --order 60 --format json", 1, "fc491243c5eb45913601729f409a37ec674745d3824eb8508897e72067612869"),
    ("verify theorem --which e --t-max 4 --order 90 --format csv", 1, "554210b306271407c21f0bb9ac5c9e88d9dbc58bfea40dce8e583c449a83999d"),
    ("verify theorem --which e --format human", 1, "0bceeb88d1d194547219a563bfb7983f94cb2c131fcb4f716627f83b895c6456"),
    ("verify theorem --which f --t-max 3 --order 60 --format json", 0, "fe96f722793cc46ef39ffdcc7dc1f06133ab3519feb9e23c899faeaedcde2abc"),
    ("verify theorem --which f --t-max 4 --order 90 --format csv", 0, "53c315ba1f3432b5d9e383a70603cb0c66b8f0d7157a1cf635015c20186c0b47"),
    ("verify theorem --which f --t-max 2 --order 45 --format human", 0, "b0ab015c5d1454b5e4f88e5df48d43129d004f0d4d4317b23dd61306fe0d9101"),
    ("verify theorem --which oracle --t-max 3 --n-max 14 --format json", 0, "283248926962f5afa03871cf7ce8291e4c127b69b48302f6b2fb1c9b3a8e94af"),
    ("verify theorem --which oracle --t-max 2 --n-max 16 --k-max 2 --format csv", 0, "bdf526b670612bc2adc2f44a235cd48ce19bebf468b86de426e4e2427e824615"),
    ("verify theorem --which oracle --t-max 4 --n-max 12 --k-max 1 --format human", 0, "99f7ec0030e7b3caef4b7b954c9a606e6462a23fa3bcc7c1d68e02d4ac746ad9"),
    # the defaults: t <= 6, n <= 40 and t <= 10, n <= 60 (enumerated to 40),
    # where one walk of the partitions of n_max reads many smaller n
    ("verify theorem --which oracle --format json", 0, "b1d10efebe471468aed9d2109a51e0e10796f1952ea8d22e18b36e3bedf168f1"),
    ("verify theorem --which thm13 --format human", 0, "532b3fe9f05404cd167abe76ecfec38a21e68d44d8bf66f6508f35cfb6921fd0"),
]


@pytest.mark.parametrize("line,code,digest", SERIES_GOLDENS, ids=[g[0] for g in SERIES_GOLDENS])
def test_series_route_stdout_is_pinned(capsys, line, code, digest):
    assert cli.main(line.split()) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# argparse's own screens, as Python 3.11 writes them at 80 columns: the sha256
# of stdout for a help screen (exit 0) and of stderr for a usage error (exit 2);
# the other stream stays empty
USAGE_GOLDENS = [
    ("-h", 0, "5cc69b705432cc504c9592420bdcd9cd95060ad617b885fecd365c39623ac0fd"),
    ("count -h", 0, "e41f866484e497cd79fcd33879cc9762826dac08812a14c6f5f8ec2ef1e18dcf"),
    ("series -h", 0, "77f34aed2dd1c528e8cad7e547dcad69d885b540bd1dd37ef8fe8899392f263e"),
    ("verify -h", 0, "e251f86a1a32679686389463f8c7375a044c9ec4a1b535e537b439dce3f543be"),
    ("verify identity -h", 0, "0c65a4378dfc21c99b6fbe03e424001faba695f6b73dfd3a4bb6a4aac85e16eb"),
    ("verify injection -h", 0, "465a10324da99a7e3b0b1b695d08d70745efd30689889ebe4400a5652ef6b72b"),
    ("verify theorem -h", 0, "225f1303ea5938804d717277414b8148d57a7abd71c2bfca5c56c335dbb76c67"),
    ("", 2, "a03d347c9c9c7fcbe349ab2dd4c41fad95c9d537cdcae8eae58189449e7733ed"),
    ("bogus", 2, "78dbdeaa71fbb83e20f4e093879b7ab0b7b5f2474f46a2cfaec0856cdac77562"),
    # a prefix of a command name is no command
    ("cou", 2, "95583a88a10231c32a3096101537665dbe96ee840dc3bce71fa01fb196531e64"),
    ("verify", 2, "ffd7e16831e8e7d350778a194c7681763952b72af04964ee65efa834aa68343f"),
    ("verify bogus", 2, "c7348827873cfe138a64fbdb26402303aeab8067401fa5ffa0f46d76364ec53b"),
    ("count --t 2 --k 1", 2, "acf2f01a5aa515ab1384606dde2a33555007bff73aeca36c8461474977da6ba8"),
    ("verify theorem", 2, "2cbdb7baf4da086058bd4f5a59091a595c0b3cd2d5e7e599827a9b09978a388f"),
    ("series --name Z --t 2 --order 5", 2, "4fdcb3441e6fed7c0f8f14b4017ad84491a8181c7ddcbe3e660b4323f772f139"),
    ("verify injection --map bogus --t 2 --n-max 5", 2, "378cd04af74316d5d550b5b0074353ba6f5c60a7f9b1eacd5d1ad6c4fd2b96e4"),
    ("verify theorem --which d --format xml", 2, "3101df759aa440a6078ac56b517581393407f3af8ed10b44f78c29608ebfd1ff"),
    ("count --t x --k 1 --n 5", 2, "3163b4a98a672a63f2f06e2e1bc79864ffa2a6b5e9ad7ec8977b53e101be622b"),
    ("count --t 2 --k 1 --n 5 --bogus", 2, "2f8fd5cc8551c485e6bdff86b76b9c89eeb641701b36299ecbc1b9b0cc87b213"),
    ("count --t 2 --k 1 --n 5 extra", 2, "e209eecebf7c14c6125513d19e2b10e25dc082a97e147f529e636c3affe8a2c2"),
    # command names where no command is parsed: a stray word, a flag's value
    ("count --t 2 --k 1 --n 5 verify", 2, "59469f27ec530f3ea94a8b2df683fc6b13310f17bfa429365fd7cea6a234e8a2"),
    ("series --name count --t 2 --order 5", 2, "d383816a70ec1a4609400d23c3bc3855e4f3ddc0622676b6ec447873675a6f06"),
]


@pytest.mark.parametrize("line,code,digest", USAGE_GOLDENS, ids=[g[0] or "(none)" for g in USAGE_GOLDENS])
def test_argparse_output_is_pinned(capsys, monkeypatch, line, code, digest):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main(line.split())
    assert exc.value.code == code
    captured = capsys.readouterr()
    written, silent = (captured.out, captured.err) if code == 0 else (captured.err, captured.out)
    assert hashlib.sha256(written.encode()).hexdigest() == digest
    assert silent == ""
