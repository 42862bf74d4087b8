"""End-to-end command line behavior: reports, exit codes, caching,
deterministic output."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from complat import linmoduli as lm
from complat import stackmodel as sm
from complat.arrangement import Flat
from complat.cli import main
from complat.errors import InvariantError
from complat.jsonio import canonical_json, document_digest, jsonable
from complat.qlinalg import span, vec_neg
from tests.test_stackmodel import SKEW3, braid_spec

REPO = Path(__file__).resolve().parent.parent
SPECS = REPO / "specs"


@pytest.fixture(autouse=True)
def _reset_cache_dir():
    yield
    lm.set_cache_dir(None)


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


def spawn(*argv, env_extra=None, stdin_text=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "complat.cli", *map(str, argv)],
        capture_output=True,
        text=True,
        cwd=REPO,
        env=env,
        input=stdin_text,
    )


# -- canonical serialization --------------------------------------------------------


def test_canonical_json_renders_rationals_and_sorts_keys():
    assert canonical_json({"b": Fraction(2, 3), "a": (1, 2)}) == '{"a":[1,2],"b":"2/3"}'
    assert jsonable(Fraction(4)) == "4"
    with pytest.raises(TypeError):
        jsonable(1.5)
    with pytest.raises(TypeError):
        jsonable({1: "x"})


def test_document_digest_ignores_formatting(tmp_path):
    doc = json.loads((SPECS / "a1_gm.json").read_text())
    shuffled = tmp_path / "shuffled.json"
    shuffled.write_text(
        '{\n  "weyl_generators": [], "roots": [],\n'
        '"weights": [[1]], "rank": 1, "type": "linear_quotient"}\n'
    )
    assert document_digest(json.loads(shuffled.read_text())) == document_digest(doc)


# -- faces --------------------------------------------------------------------------


def test_faces_lists_orbits_of_the_rank_two_example(capsys):
    code, report = run_json(capsys, "faces", SPECS / "a2_gl2.json")
    assert code == 0
    assert report["count"] == 4
    assert report["cells"] == 13
    assert report["cell_orbits"] == 8
    assert sum(report["cell_orbit_sizes"]) == 13
    assert [o["dim"] for o in report["face_orbits"]] == [2, 1, 1, 0]
    assert [o["orbit_size"] for o in report["face_orbits"]] == [1, 2, 1, 1]
    axis = report["face_orbits"][1]
    assert axis["basis"] == [["0", "1"]]
    assert axis["fixed_weights"] == [[1, 0]]
    doc = json.loads((SPECS / "a2_gl2.json").read_text())
    assert report["spec_digest"] == document_digest(doc)


def test_faces_lists_decompositions_for_quivers(capsys):
    code, report = run_json(capsys, "faces", SPECS / "a2_quiver.json", "--max-dim", 2)
    assert code == 0
    gammas = [tuple(e["gamma"]) for e in report["by_gamma"]]
    assert gammas == [(0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    assert [e["count"] for e in report["by_gamma"]] == [1, 1, 2, 2, 2]
    assert report["count"] == 8


def test_faces_text_output(capsys):
    code, out, err = run_cli(capsys, "faces", SPECS / "a2_gl2.json", "--output", "text")
    assert code == 0
    assert out.startswith("command: faces")
    assert "count: 4" in out


# -- closure ------------------------------------------------------------------------


def test_closure_of_a_special_face(capsys):
    code, report = run_json(capsys, "closure", SPECS / "a2_gl2.json", "--face", "0,1")
    assert code == 0
    assert report["is_special"] is True
    assert report["central_rank"] == 1
    assert report["closure_dim"] == 1
    assert report["fixed_weights"] == [[1, 0]]
    assert report["levi_roots"] == []


def test_closure_of_a_generic_face_is_everything(capsys):
    code, report = run_json(capsys, "closure", SPECS / "a2_gl2.json", "--face", "1,2")
    assert code == 0
    assert report["is_special"] is False
    assert report["central_rank"] == 2
    assert report["closure_dim"] == 2


def test_cone_closures_depend_on_the_sign_of_the_ray(capsys):
    code, up = run_json(capsys, "closure", SPECS / "a1_gm.json", "--ray", "1")
    assert code == 0
    assert up["ambient_rays"] == [[1]]
    assert up["attractor_weights"] == [[1]]
    code, down = run_json(capsys, "closure", SPECS / "a1_gm.json", "--ray", "-1")
    assert code == 0
    assert down["ambient_rays"] == [[-1], [1]]
    assert down["attractor_weights"] == []


def test_cone_closure_accepts_rational_rays(capsys):
    code, report = run_json(
        capsys, "closure", SPECS / "a2_gl2.json", "--ray", "1/2,1/2", "--ray", "1,0"
    )
    assert code == 0
    assert report["carrier_dim"] == 2
    assert report["cone_dim"] == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("closure", "--face", "1,0", "--ray", "0,1"),
        ("closure",),
        ("closure", "--ray", "1,1,1"),
        ("closure", "--ray", "x,y"),
        ("closure", "--face", "1/0,1"),
    ],
)
def test_closure_input_errors_exit_2(capsys, argv):
    cmd = [argv[0], SPECS / "a2_gl2.json", *argv[1:]]
    code, out, err = run_cli(capsys, *cmd)
    assert code == 2
    assert err.startswith("error:")


def test_closure_refuses_quiver_documents(capsys):
    code, out, err = run_cli(capsys, "closure", SPECS / "a2_quiver.json", "--ray", "1,1")
    assert code == 2


# sha256 of the closure report in json and in text output. The benchmark
# never runs closure, so these pin its bytes: the zero face, dependent face
# vectors, zero and rational rays, on every shipped linear spec.
CLOSURE_DIGESTS = [
    (
        "a1_gm",
        ("--face", "0"),
        "70f9182c06a8a6ce0a2270c883a5278d5463296c65e6b603b37a371b21fff10a",
        "8d274a07e7e01c9bee0d3fce3d1ad6e41360a509ca31b273e4158b50ead1512b",
    ),
    (
        "a1_gm",
        ("--face", "1"),
        "3e4eb56f6abeea47d98f398b0a4e35df44ff7d582febd5fa2b88d14484c2e448",
        "a2366d2c5f500ab27bf272d66195ae9d928093d4ed8e1231bc9d6fe90bf33a0b",
    ),
    (
        "a1_gm",
        ("--ray", "1"),
        "b0185e48b89f8c4dd3e63d326a9eab892137edbdcb3dcf4b5e88eeead29b680f",
        "9286426cee3a874cbe1b4ae085da7e5ee3e8a938e60a004601de6ce0ea14724b",
    ),
    (
        "a1_gm",
        ("--ray=-1/3",),
        "11e9a95200d3ab5613ef527aa346c14b4acacf7b0ff992707a342823dc1ec0d0",
        "d307689c1a0df726f22245c1d1f13b498870b3e07de3e79e9509ae42317b8e6d",
    ),
    (
        "b_gm",
        ("--face", "1"),
        "b2ca670e06fefe26b559617816fa85a29774f73c5fcccb655250cb1b8bf3f650",
        "9752f66a671e3922a8d55e432c7206ac0adaca581fd59f14f2349bab1f4318d6",
    ),
    (
        "b_gm",
        ("--ray", "-1"),
        "8088c2ce5858bee9ce4f5fd3aa6b81fef070ff3a55ae1a739c395324e40dc9bf",
        "29d7d369f7347d296e57b24c45ce4b36b76609f83dd94951418a06580ea98e70",
    ),
    (
        "a2_gl2",
        ("--face", "0,0"),
        "db41fd30bc742a6d7d928d03549310e674fb205ae319682e1725dee9b6c7cd99",
        "cab8951d5a280d3c42102d608d639f830a755518ed2c4b4d9c1fd184da4a0b47",
    ),
    (
        "a2_gl2",
        ("--face", "0,1"),
        "41be826f128f5ec670cd10f53cd22c155efd8ba365431bfc06a8624e0d2b58c5",
        "4fc7721acf7c96dd609349b289d55b54c121c734aed97772af1982e08fd90b1b",
    ),
    (
        "a2_gl2",
        ("--face", "1,2"),
        "e358cd3054444e4699e632fb6efcd953524f0f516fd36578a1a0f41dbd24153c",
        "133f5845f56764b2a4b0fea2b7c29f27ebc3d8b697ffee651738e5b5b2e4c6a1",
    ),
    (
        "a2_gl2",
        ("--face", "1,1", "--face", "2,2"),
        "81d9f7e3257cab2f5c5fe09acb696a216b3e98155e36607e30a3d9836d94e18a",
        "c05ea78d7a61a5a09f9efa9106abd846cdd2efdb0b8ab34622aa4fdf7decbade",
    ),
    (
        "a2_gl2",
        ("--ray", "0,0"),
        "6e1011a45ff9bd8a99933a31c23f742ff1819e4b82014ba1e3b8e17a800230ad",
        "75f1d934b6fb08d91ec9c7d90dc2c9c127580c2dfe17b8688dd85aec54006a9b",
    ),
    (
        "a2_gl2",
        ("--ray", "1,0"),
        "9513fb5dd7ec000a2b33c00bcf01f5e075068d53f2c11384ca21ff434c33c367",
        "f8e261a4654d1cdccd1b742aa021c0be50cb70b826119e46c5d0807dedf0479e",
    ),
    (
        "a2_gl2",
        ("--ray", "1/2,1/2", "--ray", "1,0"),
        "4374a479a940527d22e9ae7dc5c585dc285903756c2b0fc33152a9ee96befe1e",
        "28279500eff4dcd843d4039c2a22a41561ceeb03fafba12644603137f37ef3a6",
    ),
    (
        "a2_gl2",
        ("--ray=-1,2",),
        "1f438490f748b315c8e85739afd77e5c755bef6af32eaade1cfbe83233032fbc",
        "6c44b78b34b461278718459757456138d8634d06d3895f224dfe89d18200fd7e",
    ),
    (
        "b_gl2",
        ("--face", "1,1"),
        "6f90279dfece7649bee0c4d34c07ed6e4e160830e99cbf8375f2b29b89db8d41",
        "b0add33a03b9d2045aaeb1cfebd8c65a79d3e245f29cb860e0d2b7a2499a9f63",
    ),
    (
        "b_gl2",
        ("--ray", "1,-1"),
        "2b9d4cf4ddfc7bbd75fc68c2258e1e52f02cd4e30e6d8a5bb152bce368cccc59",
        "488107015df91246ce9de8512b5ec46fdaac07fe16d8463183b3542c7d615830",
    ),
    (
        "b_gl3",
        ("--face", "1,1,1"),
        "92d10425b6648d0fb5693ca2755d7cbc40cc509a71f29c601b62c4bcd1fa1364",
        "845997fd68712b30d503395d243afdf03000fd42abb5ff8f028418fafd4bc880",
    ),
    (
        "b_gl3",
        ("--face", "1,0,0", "--face", "0,1,0"),
        "ad05f0f2b47ba9789badc9bb009ba8744528afa321cf4f59283ec75cafcd436e",
        "0dff38e55a5e73ce82a4f15e581345d7243c083b92120332bf87151f7447f081",
    ),
    (
        "b_gl3",
        ("--ray", "1,-1,0"),
        "a569ac23b513fa6c371855fc6292bf1702042e6f9e9b555162b3819fd8402ace",
        "305dc2654c1e58a9e32a07074cd88902103a57ee263f2bfb38e1867533f7aefc",
    ),
    (
        "b_gl3",
        ("--ray", "2/3,1/5,-1"),
        "b8ae2a5039cc637942aaf1a820ecc82e6958b55f0b3f8a9f882566693f945fea",
        "19f9841024417f91d775b2946996df5a725ccabebe102283335f5b4f4fbab5be",
    ),
    (
        "b_gl4",
        ("--face", "1,1,0,0"),
        "cf6ae743b15dd3cb6a08b3db7fba91c67a61d05030ecc0d068f677b35f416157",
        "3f6578049323c4e5585219315f54e0ddde0ec08373adcfa0f00b99a073eae217",
    ),
    (
        "b_gl4",
        ("--face", "0,0,0,0"),
        "378f4a5e63cc5ee19707b591af39f25d1e909e2ccdb7da48bbf2fa6d008dcf8e",
        "b7126dcf4219d7a05fb18dac21d85a21347a15a8faebb012522374b085dedf71",
    ),
    (
        "b_gl4",
        ("--ray", "1,2,3,4"),
        "73ae9bc4305792e4b0c0d4f4fb066ee69f7eed2d8eaea5e13b295793b23eaaf1",
        "76aedd035aaa827ff32e3659266ebe777851e1b3470e3dd492a40d58308e05c0",
    ),
    (
        "b_gl4",
        ("--ray", "1,1,-1,-1", "--ray", "0,0,1,-1"),
        "14200d657273c47a9c552f15911ba41ceee3d616db85e8d32cd8e7be2f66e3d1",
        "c94f0a8a9ba64a0e15b0626f69120a0cd9f67dab8800655d6a7eb3e9067d8426",
    ),
    (
        "rank3_mixed",
        ("--face", "0,0,0"),
        "681adf43cd8ed5a56b0ab3f2f7c1fe4df80430969903a1043aefc2e3c9384918",
        "453c64cc733db368d8ba152fe01901eb1a58f0a18b4b21e9074242af9f6416ff",
    ),
    (
        "rank3_mixed",
        ("--face", "1,0,0"),
        "7c5e5bd1ecaea40521a5a1165d5899e61de590e6cba6284ef343a9849a0725f8",
        "4868f4d67593527713bfe2a27a1529a300e8f675c3908b6eb71c1f8253b01f16",
    ),
    (
        "rank3_mixed",
        ("--face", "1,-1,0", "--face", "0,0,1"),
        "bce42015b3bfaae862b0f6c448fc76dddab85db6798b4688f747dfd6855c797b",
        "c04066c8daa4ccfc8ea986cf94aa3d544664c290329744e36d9c99e7b313782a",
    ),
    (
        "rank3_mixed",
        ("--ray", "1,1,1"),
        "f093be3dd91e520c03f1c68e20ee4251e94433b2d5e9140c233b0cdfd8bf0c92",
        "f03d993220d9ac09ca892c5a69342974b94e2df8efbb9f913045b398d22ab97b",
    ),
    (
        "rank3_mixed",
        ("--ray=-1/2,1,0", "--ray", "0,0,1"),
        "9a453215ae38c918cdcf496661be4c4c7386b39d57ebb2ad89bc774c2f017320",
        "0cf454b84b6a133b7df24231fb969cfe21b71b9c5e6d4cd5c3ae3f4bcd65c4e9",
    ),
    (
        "rank3_mixed",
        ("--ray", "0,0,0"),
        "0f437a439f3e651b2fc663d40869020f42ad6b8cc5f698619b642d944ccdc606",
        "025c060c321670b1663ae5ffe382c5d9e4943b54bb12350c10c126576a5bbacc",
    ),
]


@pytest.mark.parametrize("spec,argv,json_sha256,text_sha256", CLOSURE_DIGESTS)
def test_closure_reports_are_byte_identical_to_the_recorded_ones(capsys, spec, argv, json_sha256, text_sha256):
    for output, sha256 in (("json", json_sha256), ("text", text_sha256)):
        code, out, err = run_cli(capsys, "closure", SPECS / f"{spec}.json", *argv, "--output", output)
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == sha256


# sha256 of the hall report in json and in text output, on every shipped
# linear spec, skew3 (scaled embeddings) and braid4. The benchmark runs
# only rank3_mixed's json report.
HALL_DIGESTS = {
    "a1_gm": (
        "4ce80ae84b617d0017b59a7d7b049bc1de200904aaf20cc24d350666bc549f75",
        "7252ee52eecebf5a4e2edb497f47c58223341017678b4dae8c014223ed0f9a46",
    ),
    "a2_gl2": (
        "0d62e60c3e60e1b9286be965de1fb97d96ffc9e51d1efe7466ff1c434a734188",
        "8aca11fe61c2446f1191c690b59747127e833f3629a588eabff4a5f9109d79d3",
    ),
    "b_gl2": (
        "cedeb6db0d94e99927d7e76e88deee614aa3faa90eac5b517dd9d8eb315cca64",
        "6d8500d4ddb88a1d39daadaaea2716739dd0be09304febdff5ea5b04fcfa6655",
    ),
    "b_gl3": (
        "cc2c50e12840d7d94d374de0a5be124018a99a84610057f36bdc9502530ebade",
        "614c5c407f2cbf376c838394594cfafaf64daf8ed1a4f1888efb5e985db66020",
    ),
    "b_gl4": (
        "5ab6202d2a9497b6f6a45d6c9ec369d284783934fceab443e03f726b18b4fbfd",
        "cf720a1cf6bfe447895dfc0708d8b3affc93481110849909dc0052d82421b0ad",
    ),
    "b_gm": (
        "7bcea236cf802309cd9fd62ff76328f9d656d083c96f4e5fb29f3b59c1dd7aec",
        "69be889abc7c143a7139e2fba8170a7f5944269f235c5f9bd95ce18317fdf6e1",
    ),
    "rank3_mixed": (
        "f0bfa9ce329819564b5f95084f3b51c8451925daf439c5b01c1914597a037156",
        "356ef8daa1149155321d379f838ac1639ce4855d4206d675d85f702563098344",
    ),
    "skew3": (
        "212222c4951f387f958ac5196a0229dd8b63bdc05c1ddbe0f4b9352785129a35",
        "af4fa525d055897be714e903c4d1c4df901224273c1bbbe90636386b70a19c80",
    ),
    "braid4": (
        "a2fb9165a2a20465d424fc7045517a7b289ed58dbff00afc84530a149f836256",
        "fee8f2cb2bf3e00f3915356ea73f9fd3db1fb64b120b9307213ef2eaaf70e843",
    ),
}


@pytest.mark.parametrize("name", list(HALL_DIGESTS))
def test_hall_reports_are_byte_identical_to_the_recorded_ones(capsys, tmp_path, name):
    path = SPECS / f"{name}.json"
    if name == "skew3" or name.startswith("braid"):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(SKEW3 if name == "skew3" else braid_spec(int(name[len("braid") :]))))
    for output, sha256 in zip(("json", "text"), HALL_DIGESTS[name]):
        code, out, err = run_cli(capsys, "verify", path, "--suite", "hall", "--output", output)
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == sha256


# -- verify -------------------------------------------------------------------------


def test_verify_hall_suite(capsys):
    code, report = run_json(capsys, "verify", SPECS / "a2_gl2.json", "--suite", "hall")
    assert code == 0
    assert report["ok"] is True
    assert report["category"]["morphisms"] == 21
    assert report["category"]["triples"] == 155
    assert report["weight_identity"] is True


def test_verify_constancy_suite(capsys):
    code, report = run_json(
        capsys,
        "verify", SPECS / "a1_gm.json", "--suite", "constancy", "--samples", 5, "--seed", 3,
    )
    assert code == 0
    assert report["ok"] is True
    assert report["flats"] == 2
    assert report["chambers"] == 3
    assert report["discrepancies"] == []
    assert report["samples_per_chamber"] == 5 and report["seed"] == 3


def test_verify_associativity_suite(capsys):
    code, report = run_json(
        capsys,
        "verify", SPECS / "one_vertex.json", "--suite", "associativity", "--q", 2, "--max-dim", 3,
    )
    assert code == 0
    assert report["ok"] is True
    assert report["classes"] == 4
    assert report["triples"] == 20


def test_verify_finiteness_suite(capsys):
    code, report = run_json(
        capsys, "verify", SPECS / "one_vertex.json", "--suite", "finiteness", "--max-dim", 3
    )
    assert code == 0
    assert report["ok"] is True
    assert report["objects"] == 8
    assert report["morphisms"] == 40
    assert report["identification"]["would_merge"] == 1


def test_verify_crosscheck_suite(capsys):
    code, report = run_json(
        capsys, "verify", SPECS / "a2_quiver.json", "--suite", "crosscheck", "--max-dim", 2
    )
    assert code == 0
    assert report["ok"] is True
    assert len(report["checks"]) == 5
    assert all(c["flat_orbits"] == c["decompositions"] for c in report["checks"])


@pytest.mark.parametrize(
    "spec,suite",
    [
        ("a2_quiver.json", "hall"),
        ("a2_quiver.json", "constancy"),
        ("a2_gl2.json", "associativity"),
        ("a2_gl2.json", "finiteness"),
        ("a2_gl2.json", "crosscheck"),
    ],
)
def test_suite_and_document_type_must_agree(capsys, spec, suite):
    code, out, err = run_cli(capsys, "verify", SPECS / spec, "--suite", suite)
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "a1_gm.json", "--suite", "constancy", "--samples", 0),
        ("verify", "a1_gm.json", "--suite", "constancy", "--samples", -5),
        ("verify", "one_vertex.json", "--suite", "associativity", "--max-dim", 0),
        ("verify", "one_vertex.json", "--suite", "finiteness", "--max-dim", -1),
        ("verify", "a2_quiver.json", "--suite", "crosscheck", "--max-dim", 0),
        ("faces", "a2_quiver.json", "--max-dim", -1),
    ],
)
def test_requests_that_would_check_nothing_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, argv[0], SPECS / argv[1], *argv[2:])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "must be at least 1" in err


def test_a_broken_invariant_exits_4(capsys, monkeypatch):
    def broken(spec):
        raise InvariantError("composite fell outside the morphism set")

    monkeypatch.setattr(sm, "hall_category", broken)
    code, out, err = run_cli(capsys, "verify", SPECS / "a2_gl2.json", "--suite", "hall")
    assert code == 4 and out == ""
    assert err == "invariant broken: composite fell outside the morphism set\n"


def test_an_inexact_composite_embedding_exits_4(capsys, monkeypatch):
    # embeddings carry their source's scale, and a composite is divided by
    # the middle object's; a scale they do not carry leaves a remainder
    compose = sm._compose_morphisms
    monkeypatch.setattr(sm, "_compose_morphisms", lambda m1, m2, arr, scale: compose(m1, m2, arr, 2 * scale))
    code, out, err = run_cli(capsys, "verify", SPECS / "a2_gl2.json", "--suite", "hall")
    assert code == 4 and out == ""
    assert err == (
        "invariant broken: composite embedding (1, 0), (0, 1) of (0, 1), (1, 0) and (0, 1), (1, 0) "
        "is not divisible by 2, the scale of object 0\n"
    )


def test_a_composite_embedding_outside_the_table_exits_4(capsys, monkeypatch):
    # dividing by the negated middle scale negates every composite; the
    # plane's identity then composes with itself to minus the identity,
    # which no Weyl element of a2_gl2 gives
    compose = sm._compose_morphisms
    monkeypatch.setattr(sm, "_compose_morphisms", lambda m1, m2, subs, scale: compose(m1, m2, subs, -scale))
    code, out, err = run_cli(capsys, "verify", SPECS / "a2_gl2.json", "--suite", "hall")
    assert code == 4 and out == ""
    assert err == "invariant broken: composite embedding (-1, 0), (0, -1) into object 0 is not in the table\n"


def test_a_morphism_pulling_a_restriction_off_the_source_exits_4(capsys, monkeypatch):
    # the identity of the plane with its embedding negated pulls the weight
    # (0, 1) back to (0, -1), a multiple of no weight or root restriction
    build = sm.hall_category

    def negated(spec):
        cat = build(spec)
        i = cat.identities[0]
        m = cat.morphisms[i]
        bad = m._replace(embedding=tuple(tuple(-x for x in row) for row in m.embedding))
        return cat._replace(morphisms=cat.morphisms[:i] + (bad,) + cat.morphisms[i + 1 :])

    monkeypatch.setattr(sm, "hall_category", negated)
    code, out, err = run_cli(capsys, "verify", SPECS / "a2_gl2.json", "--suite", "hall")
    assert code == 4 and out == ""
    assert err == (
        "invariant broken: morphism 1 pulls (0, 1), the restriction of (0, 1) to object 0, "
        "back to (0, -1), no positive multiple of a restriction to object 0\n"
    )


def test_a_constancy_discrepancy_carries_a_witness(capsys, monkeypatch):
    # every second closure drops the first restriction, so on the line
    # flats the first two samples of a chamber of signs -1 select
    # differently; the witness is that pair of integer sample points
    functionals = sm._restriction_functionals
    calls = []

    def alternating(spec, space):
        calls.append(space)
        out = functionals(spec, space)
        return out[1:] if len(calls) % 2 == 0 else out

    monkeypatch.setattr(sm, "_restriction_functionals", alternating)
    code, out, _ = run_cli(capsys, "verify", SPECS / "a2_gl2.json", "--suite", "constancy", "--samples", 2)
    report = json.loads(out)
    assert code == 1 and report["ok"] is False
    assert report["discrepancies"]
    for d in report["discrepancies"]:
        first, second = d["witness"]
        assert all(type(x) is int for x in first + second) and first != second
    # with the fault still in and its call count reset, the two points
    # reproduce the discrepancy
    calls.clear()
    spec = sm.load_spec(json.loads((SPECS / "a2_gl2.json").read_text()))
    first, second = report["discrepancies"][0]["witness"]
    assert sm._sample_signatures(spec, tuple(first)) != sm._sample_signatures(spec, tuple(second))


def test_a_cone_closure_outside_its_carrier_exits_4(capsys, monkeypatch):
    # a carrier flat that misses the ray breaks special_cone_closure
    wrong = Flat(span([(1, 0)], 2), (1,))
    monkeypatch.setattr(sm, "flat_cut_out", lambda arr, hyperplanes: wrong)
    code, out, err = run_cli(capsys, "closure", SPECS / "a2_gl2.json", "--ray", "1,2")
    assert code == 4 and out == ""
    assert err == "invariant broken: closure (1, 0) misses rays (1, 2)\n"


def test_a_refinement_that_is_not_an_object_exits_4(capsys, monkeypatch):
    # without (2,) among the dimension vectors, splitting (3,) reaches ((1,), (2,))
    dim_vectors = lm.dim_vectors
    monkeypatch.setattr(lm, "dim_vectors", lambda n, total: [v for v in dim_vectors(n, total) if v != (2,)])
    code, out, err = run_cli(capsys, "verify", SPECS / "one_vertex.json", "--suite", "finiteness", "--max-dim", 3)
    assert code == 4 and out == ""
    assert err == "invariant broken: refinement ((1,), (2,)) of object ((3,),) is not an object\n"


def test_a_restriction_vanishing_on_the_rays_exits_4(capsys, monkeypatch):
    # (1, 1) lies on the root hyperplane, so the whole plane is not its
    # minimal flat: the root restricts to a functional that vanishes on it
    plane = Flat(span([(1, 0), (0, 1)], 2), ())
    monkeypatch.setattr(sm, "flat_cut_out", lambda arr, hyperplanes: plane)
    code, out, err = run_cli(capsys, "closure", SPECS / "a2_gl2.json", "--ray", "1,1")
    assert code == 4 and out == ""
    assert err == (
        "invariant broken: restricted functional (-1, 1) vanishes on rays (1, 1), "
        "so their special face closure is not minimal\n"
    )


def test_a_sample_outside_its_chamber_exits_4(capsys, monkeypatch):
    # pointed rays handed back negated put every sample in the opposite chamber
    split = sm.split_rays

    def negated(rays):
        lin, pointed = split(rays)
        return lin, tuple(vec_neg(r) for r in pointed)

    monkeypatch.setattr(sm, "split_rays", negated)
    code, out, err = run_cli(capsys, "verify", SPECS / "a2_gl2.json", "--suite", "constancy", "--samples", 2)
    assert code == 4 and out == ""
    assert err.startswith("invariant broken: sample (") and " left chamber (" in err


def test_a_class_missing_from_its_sweep_exits_4(capsys, monkeypatch, fresh_memos):
    # the sweep of (1, 1) loses the nonzero map u -> v, which the Hall
    # table of (1, 1) meets again as the subrepresentation on everything
    sweep = lm.iso_classes

    def lossy(quiver, gamma, q):
        classes = sweep(quiver, gamma, q)
        if tuple(gamma) != (1, 1):
            return classes
        class_of = {rep: i for rep, i in classes.class_of.items() if rep != classes.reps[1]}
        return classes._replace(class_of=class_of)

    monkeypatch.setattr(lm, "iso_classes", lossy)
    code, out, err = run_cli(
        capsys, "verify", SPECS / "a2_quiver.json", "--suite", "associativity", "--q", 2,
        "--max-dim", 2,
    )
    assert code == 4 and out == ""
    assert err == (
        "invariant broken: Hall table of gamma=[1, 1] sub=[1, 1] q=2: representation (((1,),),) "
        "is missing from the classes of gamma=[1, 1] q=2\n"
    )


def test_unreadable_and_malformed_documents_exit_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, "faces", SPECS / "missing.json")
    assert code == 2 and "cannot read" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "faces", bad)
    assert code == 2 and "not valid JSON" in err
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    code, _, err = run_cli(capsys, "faces", arr)
    assert code == 2 and "JSON object" in err


@pytest.mark.parametrize(
    "arrows",
    [5, None, [[["a"], "a"]], [[{"a": 1}, "a"]]],
    ids=["number", "null", "list-endpoint", "dict-endpoint"],
)
def test_malformed_quiver_arrows_exit_2(capsys, tmp_path, arrows):
    doc = tmp_path / "quiver.json"
    doc.write_text(json.dumps({"type": "quiver", "vertices": ["a"], "arrows": arrows}))
    code, out, err = run_cli(capsys, "faces", doc)
    assert code == 2 and out == ""
    assert err.startswith("error:")


def test_oversized_counting_requests_exit_3(capsys):
    code, out, err = run_cli(
        capsys, "verify", SPECS / "jordan.json", "--suite", "associativity", "--q", 2,
        "--max-dim", 4,
    )
    assert code == 3
    assert err.startswith("cap exceeded:")


# 4000 = 2^5 * 5^3 is no prime power, but the cap comes before the factor search
@pytest.mark.parametrize("q", [1000000007, 4000])
def test_a_field_too_large_for_its_tables_exits_3(capsys, q):
    code, out, err = run_cli(
        capsys, "verify", SPECS / "a2_quiver.json", "--suite", "associativity", "--q", q,
        "--max-dim", 1,
    )
    assert code == 3 and out == ""
    assert err.startswith(f"cap exceeded: field size {q}:")


# the shear generates an infinite group, so enumerating it hits the Weyl cap
INFINITE_WEYL = {
    "type": "linear_quotient", "rank": 2, "weights": [], "roots": [], "weyl_generators": [[[1, 1], [0, 1]]]
}


def test_an_infinite_weyl_group_exits_3(capsys, tmp_path):
    doc = tmp_path / "shear.json"
    doc.write_text(json.dumps(INFINITE_WEYL))
    code, out, err = run_cli(capsys, "faces", doc)
    assert code == 3 and out == ""
    assert err == "cap exceeded: weyl group larger than cap 100000\n"


@pytest.mark.parametrize("token", ["1.5", "1e400", "NaN", "-Infinity"])
@pytest.mark.parametrize(
    "argv",
    [("faces",), ("closure", "--ray", "1"), ("verify", "--suite", "constancy")],
    ids=["faces", "closure", "verify"],
)
def test_floats_in_a_document_exit_2(capsys, tmp_path, argv, token):
    # a float anywhere, even under a key no loader reads, is malformed input
    doc = tmp_path / "floats.json"
    for field in (f'"weights": [[{token}]]', f'"weights": [], "comment": [{token}]'):
        doc.write_text('{"type": "linear_quotient", "rank": 1, "roots": [], "weyl_generators": [], ' + field + "}")
        code, out, err = run_cli(capsys, argv[0], doc, *argv[1:])
        assert code == 2 and out == ""
        assert err == f"error: {doc} holds the float {token}; numbers must be exact integers\n"


def _spawn_optimized(script):
    # python -O strips assert statements; the exit codes must not rely on them
    return subprocess.run(
        [sys.executable, "-O", "-c", "import sys\nfrom complat.cli import main\n" + script],
        capture_output=True,
        text=True,
        cwd=REPO,
    )


def test_a_broken_invariant_exits_4_under_python_O():
    result = _spawn_optimized(
        "from complat import stackmodel as sm\n"
        "from complat.qlinalg import vec_neg\n"
        "split = sm.split_rays\n"
        "sm.split_rays = lambda rays: (split(rays)[0], tuple(vec_neg(r) for r in split(rays)[1]))\n"
        f"sys.exit(main(['verify', {str(SPECS / 'a2_gl2.json')!r}, '--suite', 'constancy', '--samples', '2']))\n"
    )
    assert result.returncode == 4 and result.stdout == ""
    assert result.stderr.startswith("invariant broken: sample (")
    result = _spawn_optimized(
        "from complat import stackmodel as sm\n"
        "compose = sm._compose_morphisms\n"
        "sm._compose_morphisms = lambda m1, m2, subs, scale: compose(m1, m2, subs, -scale)\n"
        f"sys.exit(main(['verify', {str(SPECS / 'a2_gl2.json')!r}, '--suite', 'hall']))\n"
    )
    assert result.returncode == 4 and result.stdout == ""
    assert result.stderr == "invariant broken: composite embedding (-1, 0), (0, -1) into object 0 is not in the table\n"


def test_a_request_over_a_cap_exits_3_under_python_O():
    result = _spawn_optimized(
        f"sys.exit(main(['verify', {str(SPECS / 'jordan.json')!r}, '--suite', 'associativity', "
        "'--q', '2', '--max-dim', '4']))\n"
    )
    assert result.returncode == 3 and result.stdout == ""
    assert result.stderr.startswith("cap exceeded: orbit sweep of ")


def test_an_infinite_weyl_group_exits_3_under_python_O(tmp_path):
    doc = tmp_path / "shear.json"
    doc.write_text(json.dumps(INFINITE_WEYL))
    result = _spawn_optimized(f"sys.exit(main(['faces', {str(doc)!r}]))\n")
    assert result.returncode == 3 and result.stdout == ""
    assert result.stderr == "cap exceeded: weyl group larger than cap 100000\n"


def test_a_closed_stdout_exits_141_without_a_traceback():
    # the read end is closed before the child writes, as when a filter such
    # as head -c 10 has already exited; 141 is 128 + SIGPIPE
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "complat.cli", "faces", str(SPECS / "a2_quiver.json")],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            cwd=REPO,
        )
    finally:
        os.close(write_end)
    assert result.returncode == 141
    assert result.stderr == ""


# -- cache and determinism ------------------------------------------------------------


def test_repeated_runs_are_byte_identical(capsys):
    args = ("verify", SPECS / "a2_gl2.json", "--suite", "hall")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert (code1, out1) == (code2, out2)


def test_cold_and_warm_cache_runs_are_byte_identical(tmp_path):
    cache = tmp_path / "cache"
    args = (
        "verify", SPECS / "a2_quiver.json", "--suite", "associativity",
        "--q", 2, "--max-dim", 2, "--cache-dir", cache,
    )
    cold = spawn(*args)
    assert cold.returncode == 0
    entries = sorted(cache.iterdir())
    assert entries, "cache directory was not populated"
    warm = spawn(*args)
    assert warm.returncode == 0
    assert warm.stdout == cold.stdout
    # a corrupted entry is recomputed, not trusted
    entries[0].write_text("garbage")
    again = spawn(*args)
    assert again.returncode == 0
    assert again.stdout == cold.stdout


def test_cache_directory_from_environment(tmp_path):
    cache = tmp_path / "envcache"
    result = spawn(
        "verify", SPECS / "one_vertex.json", "--suite", "associativity",
        "--q", 2, "--max-dim", 2,
        env_extra={"COMPONENT_LATTICE_CACHE": str(cache)},
    )
    assert result.returncode == 0
    assert any(cache.iterdir())


def test_cached_classes_round_trip(tmp_path):
    quiver = lm.load_quiver({"type": "quiver", "vertices": ["u", "v"], "arrows": [["u", "v"]]})
    lm.set_cache_dir(str(tmp_path))
    try:
        lm.iso_classes.cache_clear()
        fresh = lm.iso_classes(quiver, (1, 1), 3)
        lm.iso_classes.cache_clear()
        loaded = lm.iso_classes(quiver, (1, 1), 3)
    finally:
        lm.set_cache_dir(None)
        lm.iso_classes.cache_clear()
    assert loaded.reps == fresh.reps
    assert loaded.orbit_sizes == fresh.orbit_sizes
    assert loaded.aut_orders == fresh.aut_orders
    assert loaded.class_of == fresh.class_of


A3_QUIVER = {"type": "quiver", "vertices": ["a", "b", "c"], "arrows": [["a", "b"], ["b", "c"]]}


@pytest.mark.parametrize(
    "doc,argv,sha256",
    [
        (
            A3_QUIVER,
            ("--suite", "finiteness", "--max-dim", "3"),
            "c07368a58c4f0c98860605634f890cc93be81f29844d3bd7c9643fb66b266ef6",
        ),
        (
            None,
            ("--suite", "finiteness", "--max-dim", "4"),
            "51a177b8b49854fdd0bcf521fb8635ae303ca8a0fb6b4c7ff1a475b3703bc594",
        ),
    ],
)
def test_finiteness_reports_are_byte_identical_to_the_recorded_ones(capsys, tmp_path, doc, argv, sha256):
    # the digests perfbench/workloads.py records for finiteness-a3_quiver
    # and finiteness-one_vertex
    path = SPECS / "one_vertex.json"
    if doc is not None:
        path = tmp_path / "a3_quiver.json"
        path.write_text(json.dumps(doc, indent=2) + "\n")
    code, out, err = run_cli(capsys, "verify", path, *argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_documents_can_come_from_stdin():
    text = (SPECS / "a1_gm.json").read_text()
    result = spawn("faces", "-", stdin_text=text)
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["count"] == 2


def test_subprocess_output_is_stable_across_processes():
    args = ("faces", SPECS / "a2_gl2.json")
    first = spawn(*args)
    second = spawn(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


# -- the external tracer of the benchmark ----------------------------------------------


@pytest.mark.parametrize(
    "argv,triples_key",
    [
        (("specs/a2_gl2.json", "--suite", "hall"), "stackmodel.verify_hall_category.triples"),
        (
            ("specs/one_vertex.json", "--suite", "finiteness", "--max-dim", "3"),
            "linmoduli.verify_lms_category.triples",
        ),
    ],
)
def test_the_benchmark_tracer_still_hooks_both_categories(tmp_path, argv, triples_key):
    # perfbench/tracer.py wraps hall_category, verify_hall_category,
    # hall_category_lms and verify_lms_category by name and counts triples
    # from the verifiers' reports
    out = tmp_path / "trace.json"
    result = subprocess.run(
        [sys.executable, "perfbench/tracer.py", str(out), "0", "--", "verify", *argv],
        capture_output=True,
        text=True,
        cwd=REPO,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    laws = report.get("category", report)
    counters = json.loads(out.read_text())["counters"]
    assert laws["triples"] > 0
    assert counters[triples_key] == laws["triples"]
