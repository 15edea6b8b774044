"""The bytes of ``evolve`` and ``joint_distribution`` on every catalog circuit.

For each scenario under each combination of its choice settings (22 cases),
``EVOLVED`` holds the SHA-256 of ``evolve``'s amplitudes (C order), weight
and blocked flag, and ``DISTRIBUTED`` that of ``joint_distribution``'s
probabilities, axes, labels and total mass.  They were recorded while
``evolve`` still returned a ``StateVector`` (or ``AllBlocked``), before it
returned its one-row ``StateStack``: a change to the evolution, the basis
changes or the Born step shows up here in the last bit.
"""

import hashlib

import numpy as np
import pytest

from qesim import scenarios
from qesim.circuit import evolve, joint_distribution


def cases():
    out = []
    for name in scenarios.list_names():
        circuit = scenarios.build(name).circuit
        combos = [{}]
        for choice in circuit.choice_names():
            alts = circuit.find_choice(choice).alternatives
            combos = [{**c, choice: alt} for c in combos for alt in alts]
        out += [(name, settings) for settings in combos]
    return out


def case_id(case):
    name, settings = case
    return "-".join([name] + [f"{k}={v}" for k, v in settings.items()])


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def evolved(circuit, settings):
    """The amplitudes, weight and blocked flag of ``evolve``'s one row.  The
    state ``evolve`` returned when they were recorded held the same
    amplitudes flat, in the same C order; no catalog case is blocked."""
    st = evolve(circuit, settings)
    return st.amps[0], st.weights[0], bool(st.blocked[0])


EVOLVED = {
    "two_slit": "dda3c169ff3de53d7cea9c7a23b2aac2dd8713bb912c85e5e30b940e7da23bd8",
    "wheeler-screen=in": "dda3c169ff3de53d7cea9c7a23b2aac2dd8713bb912c85e5e30b940e7da23bd8",
    "wheeler-screen=out": "dda3c169ff3de53d7cea9c7a23b2aac2dd8713bb912c85e5e30b940e7da23bd8",
    "mz_one_bs": "253769552b94d89f038f4f65010d0415a73919e1635dd56602ee39381e6df423",
    "mz_two_bs": "64f83db328fb324c84f07688ab525867c0e983d6ee3bdd71d6099749df622fc1",
    "mz_recombine_single_detector": "e9679ea2c36c5c534b6c16d3e5a396a072af7f89f3528a5b2ecb660069bc4bdd",
    "analyzer_loop-mask=open": "1d1018243541126c51f7730b4cccfec8a2d3994317463971fea5c16d97ddbb79",
    "analyzer_loop-mask=block_L": "7a6d33b8207f6b8aef0a06bcd200b9b09015708105b1947ea3baa80944a326b5",
    "analyzer_loop-mask=block_U": "cc90334c3a0715fb1fd770d5939e55f90332de5c24d6b0245359ee80c70540f9",
    "sg_loop-mask=open": "dd2a138c18fde314ff18e2348e546ecb74c54ba55e1d7a629cef62a8f704aa88",
    "sg_loop-mask=keep_top": "1bab43ab347e29f80e6d15aa5347dec6c101754996177fe0d5ef4161cdb41067",
    "sg_loop-mask=keep_mid": "355405c4a507552b7f6363359297c7f923d625897fb62bafb3dceda8edae71d3",
    "sg_loop-mask=keep_bot": "beee17645ca3095b2f6908cfc2915ff341bd27bda12c05f383ed7bd031f1787a",
    "one_photon_eraser-eraser=plus45": "1bc3a1d5035149d9651c8ffceb5bf8e1b703c2e50eaadb6fc02609ba6ba9266e",
    "one_photon_eraser-eraser=minus45": "cdb630e89337d458fe4e2a979787ae8c50da5911478b54a307f55cbd30e95305",
    "one_photon_eraser-eraser=absent": "1a8674e8176edb350fc16de3df512ce815fc72bc1e3a4609d6cee100b9d5d795",
    "walborn-p_pol=plus45": "d955c2cfcbdfc96217f277c3f225446871e33bf6e9570480cd6f6467bdaf5806",
    "walborn-p_pol=minus45": "0e7e9a1ad669414a09b132d994b577f19c488610e1c83bc9763d84aa2a9a4bec",
    "walborn-p_pol=absent": "6497327357952b5bc5f74a637ee7fce81dc4f0daac9d9677491b27002be910cb",
    "walborn_delayed-p_pol=plus45": "d955c2cfcbdfc96217f277c3f225446871e33bf6e9570480cd6f6467bdaf5806",
    "walborn_delayed-p_pol=minus45": "0e7e9a1ad669414a09b132d994b577f19c488610e1c83bc9763d84aa2a9a4bec",
    "walborn_delayed-p_pol=absent": "6497327357952b5bc5f74a637ee7fce81dc4f0daac9d9677491b27002be910cb",
}

DISTRIBUTED = {
    "two_slit": "718c4cc8d36a0ba410fa6d32c512cd635a5cec7c90903ffdac31042cdf2e1858",
    "wheeler-screen=in": "a5e844b84f33c3e8baf3c698c50c0a545d1efa8d48ab72ceba4ec33ab7c698a2",
    "wheeler-screen=out": "92024c60ce37c9c0a1bbfd9e4b38c25d375571b3fedd80e88d59145e5f0fc9ba",
    "mz_one_bs": "f51705905cb9d06c5e87d8bbfc5eaaa4fb4c33e8ebeb3f3d8dc2ad322bf9287c",
    "mz_two_bs": "96d1952a323c7f80081aca02b999781faad98a2819875eda2be5997d183f0a33",
    "mz_recombine_single_detector": "ca989e8a96ed08613aeb9aff541f3916a207f460082101886a5d116fc8754eef",
    "analyzer_loop-mask=open": "2cd1abf8cfa8c214b0e955ea597fa7fbed68851bc76237bcd3fa1eb49db21ae4",
    "analyzer_loop-mask=block_L": "589885a544edaae95ef1ef9ac3f0732ea0a481f7bc454e4f60d1eada3c38b6b1",
    "analyzer_loop-mask=block_U": "589885a544edaae95ef1ef9ac3f0732ea0a481f7bc454e4f60d1eada3c38b6b1",
    "sg_loop-mask=open": "993053bded40606433e4aef6167bec4c3b7e036fb02dcb3604130dc9738e356e",
    "sg_loop-mask=keep_top": "d1aa126e60660c48c70547a1229d52fe8b0b22c7e8e3276824a8b27739766249",
    "sg_loop-mask=keep_mid": "3e0c9d86ff8096831461d04d50180efc5763e1d076c4125f01e95404a14f894c",
    "sg_loop-mask=keep_bot": "fc8d036ab17873298e3efd71d7f81c4d1591365e42a4263f9ffc0357bdaa07b7",
    "one_photon_eraser-eraser=plus45": "650129a9670b798cfa6616dffef57567b4ddc2bb57629689cab7c6543c6197f6",
    "one_photon_eraser-eraser=minus45": "dbe0ad0a74dcbc1403520e5ffcf60f38d41a73b7cef6693567e24a1c556ae265",
    "one_photon_eraser-eraser=absent": "f5f407e67a31acc0ecb415e3cbd8a75bd127b1b2444e690d3907f1ca90794d6c",
    "walborn-p_pol=plus45": "3774ae2e28eaaacff41229fc066de1432c39587e080bdce3cc285e694ea8a09d",
    "walborn-p_pol=minus45": "d3a77dbef34f4d38d6090f6053934f6e2c93226b3ad196000b44385806fb4e4c",
    "walborn-p_pol=absent": "19dbb2235cd3ed1493f2e5080d0989c5bafe1620b12a6017ae54f835cfab9df8",
    "walborn_delayed-p_pol=plus45": "3774ae2e28eaaacff41229fc066de1432c39587e080bdce3cc285e694ea8a09d",
    "walborn_delayed-p_pol=minus45": "d3a77dbef34f4d38d6090f6053934f6e2c93226b3ad196000b44385806fb4e4c",
    "walborn_delayed-p_pol=absent": "19dbb2235cd3ed1493f2e5080d0989c5bafe1620b12a6017ae54f835cfab9df8",
}


@pytest.mark.parametrize("case", cases(), ids=case_id)
def test_evolve_bytes(case):
    name, settings = case
    amps, weight, blocked = evolved(scenarios.build(name).circuit, settings)
    got = digest(np.ascontiguousarray(amps, dtype=complex).tobytes(),
                 np.float64(weight).tobytes(), blocked)
    assert got == EVOLVED[case_id(case)]


@pytest.mark.parametrize("case", cases(), ids=case_id)
def test_joint_distribution_bytes(case):
    name, settings = case
    d = joint_distribution(scenarios.build(name).circuit, settings)
    got = digest(np.ascontiguousarray(d.probs).tobytes(), d.axes, d.labels,
                 np.float64(d.total_mass).tobytes())
    assert got == DISTRIBUTED[case_id(case)]


def test_every_case_is_pinned():
    ids = [case_id(c) for c in cases()]
    assert len(ids) == 22
    assert sorted(ids) == sorted(EVOLVED) == sorted(DISTRIBUTED)
