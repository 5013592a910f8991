"""Per-atom evaluations of every design family, pinned across versions.

GOLDEN holds the seven EvaluationResult fields of 60 evaluations at one
effect atom each: the three families from both perspectives, in market
cases 1 and 3, at n in {50, 137, 1000}, and for the stratified family at
alpha_S in {0, alpha/2, alpha}. The atoms take turns over a mixed, a
null, a qualitative and a prognostic one. The values were captured from
the per-atom evaluation functions the library had before
``eu_prior_averaged`` with a one-atom prior took their place, which must
reproduce them exactly; ``==`` lets only the sign of a zero differ. The
stratified entries were re-captured when the kernel's CDF moved from
Owen's form to Genz's Gauss-Legendre form below |rho| = 0.925: each of
the 36 moved by rounding only, at most 2.3e-13 MUSD and 2.3e-16 on
probabilities.
"""

import pytest

from trialopt.model import DesignSpec, DiscretePrior, EffectPair
from trialopt.utility import _FIELDS, eu_prior_averaged
from conftest import make_scenario

LAMBDA_S = 0.35
CASES = {"case1": 1, "case3": 3}
SIZES = (50, 137, 1000)
# alpha_S of the stratified design as a share of alpha.
SHARES = {"0": 0.0, "alpha/2": 0.5, "alpha": 1.0}
ATOMS = (EffectPair(0.3, 0.1), EffectPair(0.0, 0.0), EffectPair(0.45, -0.1),
         EffectPair(0.25, 0.25, prognostic_offset=0.2))


def cases():
    """(family, perspective, case, n, alpha_S share or None, atom index)
    of every pinned evaluation, the atoms taking turns."""
    turn = 0
    for family in ("classical", "stratified", "enrichment"):
        for perspective in ("sponsor", "public"):
            for case in CASES:
                for n in SIZES:
                    for share in (SHARES if family == "stratified" else (None,)):
                        yield family, perspective, case, n, share, turn % len(ATOMS)
                        turn += 1


def key(case):
    family, perspective, market, n, share, atom = case
    parts = [family, perspective, market, f"n={n}", f"atom{atom}"]
    if share is not None:
        parts.insert(4, f"alpha_S={share}")
    return "/".join(parts)


GOLDEN = {
    "classical/sponsor/case1/n=50/atom0": (
        518.1538281771627, 0.0, 0.13309247488649484, 0.13309247488649484,
        0.0, 524.1538281771627, 6.0),
    "classical/sponsor/case1/n=137/atom1": (
        30.915915830892487, 0.0, 0.024999999999999977, 0.024999999999999977,
        0.0, 45.61591583089249, 14.700000000000001),
    "classical/sponsor/case1/n=1000/atom2": (
        45.41724906242149, 0.0, 0.5293778975949808, 0.5293778975949808,
        0.0, 146.4172490624215, 101.0),
    "classical/sponsor/case3/n=50/atom3": (
        91.61211473808137, 0.0, 0.2371151846453013, 0.2371151846453013,
        0.0, 97.61211473808137, 6.0),
    "classical/sponsor/case3/n=137/atom0": (
        46.922749318436225, 0.0, 0.28905290296619457, 0.28905290296619457,
        0.0, 61.62274931843623, 14.700000000000001),
    "classical/sponsor/case3/n=1000/atom1": (
        -100.80286767768077, 0.0, 0.024999999999999977, 0.024999999999999977,
        0.0, 0.19713232231923816, 101.0),
    "classical/public/case1/n=50/atom2": (
        -10.960017552539082, 0.0, 0.0661335673671877, 0.0661335673671877,
        0.0, -4.960017552539083, 6.0),
    "classical/public/case1/n=137/atom3": (
        794.9247338968437, 0.0, 0.5397498225978958, 0.5397498225978958,
        0.0, 809.6247338968437, 14.700000000000001),
    "classical/public/case1/n=1000/atom0": (
        575.6051986467987, 0.0, 0.9665788552097128, 0.9665788552097128,
        0.0, 676.6051986467987, 101.0),
    "classical/public/case3/n=50/atom1": (
        -8.499999999999998, 0.0, 0.024999999999999977, 0.024999999999999977,
        0.0, -2.499999999999998, 6.0),
    "classical/public/case3/n=137/atom2": (
        -15.552536599510308, 0.0, 0.11367154660137418, 0.11367154660137418,
        0.0, -0.8525365995103072, 14.700000000000001),
    "classical/public/case3/n=1000/atom3": (
        48.976583389280364, 0.0, 0.9998438892618691, 0.9998438892618691,
        0.0, 149.97658338928036, 101.0),
    "stratified/sponsor/case1/n=50/alpha_S=0/atom0": (
        491.7779163743049, 0.005022462173399536, 0.1206738026884223, 0.12569626486182184,
        17.920039243794175, 479.8578771305107, 6.0),
    "stratified/sponsor/case1/n=50/alpha_S=alpha/2/atom1": (
        74.98136847303034, 0.009134741525929677, 0.014006102424578726, 0.023140843950508402,
        24.67169268442654, 56.309675788603805, 6.0),
    "stratified/sponsor/case1/n=50/alpha_S=alpha/atom2": (
        751.5252829838731, 0.22711351057552917, 0.037611419258838735, 0.2647249298343679,
        606.1121707428688, 151.41311224100437, 6.0),
    "stratified/sponsor/case1/n=137/alpha_S=0/atom3": (
        1175.6615023606078, 0.0041849712556424334, 0.48529983363778506, 0.4894848048934275,
        8.429787943049272, 1181.9317144175586, 14.700000000000001),
    "stratified/sponsor/case1/n=137/alpha_S=alpha/2/atom0": (
        667.3215998015044, 0.10244574159875655, 0.22433752872248597, 0.32678327032124255,
        168.6442187853261, 513.3773810161783, 14.700000000000001),
    "stratified/sponsor/case1/n=137/alpha_S=alpha/atom1": (
        21.882949746579023, 0.01932760723923662, 0.005672392760763402, 0.025000000000000022,
        25.265429973878202, 11.317519772700825, 14.700000000000001),
    "stratified/sponsor/case1/n=1000/alpha_S=0/atom2": (
        623.0705810487585, 0.533183805834094, 0.00997655520791476, 0.5431603610420087,
        715.2273216232381, 8.843259425520396, 101.0),
    "stratified/sponsor/case1/n=1000/alpha_S=alpha/2/atom3": (
        1397.2036466357224, 3.165989772849209e-05, 0.9970654924060541, 0.9970971523037826,
        0.018043380072492083, 1498.18560325565, 101.0),
    "stratified/sponsor/case1/n=1000/alpha_S=alpha/atom0": (
        661.0394512604853, 0.10086683553606499, 0.8768467209410972, 0.9777135564771622,
        70.82832630697898, 691.2111249535063, 101.0),
    "stratified/sponsor/case3/n=50/alpha_S=0/atom1": (
        -8.608247887033981, 0.0004028218206219708, 0.020833326940583367, 0.021236148761205338,
        0.13794724367804617, 7.753804869287973, 16.5),
    "stratified/sponsor/case3/n=50/alpha_S=alpha/2/atom2": (
        46.19103227977497, 0.15188154146166927, 0.044470951962159624, 0.19635249342382888,
        44.598242347626886, 18.092789932148087, 16.5),
    "stratified/sponsor/case3/n=50/alpha_S=alpha/atom3": (
        25.156211852531186, 0.043100972945141425, 0.06804543353143261, 0.11114640647657403,
        10.661493195203983, 30.994718657327205, 16.5),
    "stratified/sponsor/case3/n=137/alpha_S=0/atom0": (
        34.90183788619077, 0.016629136748687018, 0.2657407771906645, 0.2823699139393515,
        3.4785562567440897, 57.49328162944668, 26.07),
    "stratified/sponsor/case3/n=137/alpha_S=alpha/2/atom1": (
        -21.85877574894151, 0.009134741525929677, 0.014006102424578726, 0.023140843950508402,
        1.3639029806875342, 2.8473212703709554, 26.07),
    "stratified/sponsor/case3/n=137/alpha_S=alpha/atom2": (
        76.99238930276778, 0.5361233217543203, 0.0600398616079341, 0.5961631833622544,
        90.11490747474228, 12.947481828025483, 26.07),
    "stratified/sponsor/case3/n=1000/alpha_S=0/atom3": (
        28.82004617021039, 2.2223102600166245e-05, 0.9971802692440963, 0.9972024923466964,
        0.001485844645380014, 149.81856032556502, 121.0),
    "stratified/sponsor/case3/n=1000/alpha_S=alpha/2/atom0": (
        -44.456316511229744, 0.09733399967853104, 0.8889354913231513, 0.9862694910016824,
        7.009639985616131, 69.53404350315412, 121.0),
    "stratified/sponsor/case3/n=1000/alpha_S=alpha/atom1": (
        -120.41706045358256, 0.01932760723923662, 0.005672392760763402, 0.025000000000000022,
        0.5090799294821917, 0.07385961693524407, 121.0),
    "stratified/public/case1/n=50/alpha_S=0/atom2": (
        3.879147480821878, 0.011436082480717577, 0.05506738077409534, 0.06650346325481292,
        14.009201038879032, -4.1300535580571545, 6.0),
    "stratified/public/case1/n=50/alpha_S=alpha/2/atom3": (
        254.23036071962719, 0.022787457238518133, 0.16551129711293677, 0.1882987543514549,
        11.96341505022202, 248.26694566940515, 6.0),
    "stratified/public/case1/n=50/alpha_S=alpha/atom0": (
        93.21525715717809, 0.08772343164922831, 0.054012650003883264, 0.14173608165311158,
        61.40640215445981, 37.808855002718275, 6.0),
    "stratified/public/case1/n=137/alpha_S=0/atom1": (
        -35.67431457780106, 0.0004028218206219708, 0.020833326940583367, 0.021236148761205338,
        -0.14098763721768978, -20.83332694058337, 14.700000000000001),
    "stratified/public/case1/n=137/alpha_S=alpha/2/atom2": (
        509.25426207347897, 0.4314950743081879, 0.06169605272068239, 0.4931911270288703,
        528.5814660275302, -4.627203954051184, 14.700000000000001),
    "stratified/public/case1/n=137/alpha_S=alpha/atom3": (
        294.0721311577132, 0.03855496270762854, 0.1923538504908055, 0.23090881319843404,
        20.24135542150498, 288.5307757362082, 14.700000000000001),
    "stratified/public/case1/n=1000/alpha_S=0/atom0": (
        575.9830761905414, 0.07476952266754133, 0.8923491576046609, 0.9671186802722023,
        52.33866586727893, 624.6444103232625, 101.0),
    "stratified/public/case1/n=1000/alpha_S=alpha/2/atom1": (
        -118.20326195865411, 0.009134741525929677, 0.014006102424578726, 0.023140843950508402,
        -3.1971595340753867, -14.006102424578726, 101.0),
    "stratified/public/case1/n=1000/alpha_S=alpha/atom2": (
        1110.9905846346758, 0.9899908752272473, 0.009976500249362452, 0.9999673754766097,
        1212.738822153378, -0.7482375187021846, 101.0),
    "stratified/public/case3/n=50/alpha_S=0/atom3": (
        14.60141255866052, 0.0027133149281363678, 0.2063930901662224, 0.20910640509435877,
        0.1424490337271593, 30.95896352493336, 16.5),
    "stratified/public/case3/n=50/alpha_S=alpha/2/atom0": (
        -6.399876587623144, 0.0506396997608972, 0.0936477775587722, 0.1442874773196694,
        3.544778983262804, 6.555344429114053, 16.5),
    "stratified/public/case3/n=50/alpha_S=alpha/atom1": (
        -17.74370552944962, 0.01932760723923662, 0.005672392760763402, 0.025000000000000022,
        -0.6764662533732817, -0.5672392760763402, 16.5),
    "stratified/public/case3/n=137/alpha_S=0/atom2": (
        -20.70199251377022, 0.047989628620926816, 0.06809626931116741, 0.11608589793209423,
        5.878729506063534, -0.5107220198337561, 26.07),
    "stratified/public/case3/n=137/alpha_S=alpha/2/atom3": (
        39.35240932449539, 0.021765185423674727, 0.42853158059834984, 0.45029676602202456,
        1.1426722347429232, 64.27973708975247, 26.07),
    "stratified/public/case3/n=137/alpha_S=alpha/atom0": (
        -4.250960642432375, 0.15650522646471393, 0.15519533578625216, 0.3117005622509661,
        10.955365852529976, 10.86367350503765, 26.07),
    "stratified/public/case3/n=1000/alpha_S=0/atom1": (
        -123.0974314577801, 0.0004028218206219708, 0.020833326940583367, 0.021236148761205338,
        -0.014098763721768978, -2.0833326940583365, 121.0),
    "stratified/public/case3/n=1000/alpha_S=alpha/2/atom2": (
        0.19047085508546502, 0.9899207649282544, 0.009976379816758425, 0.9998971447450129,
        121.26529370371115, -0.07482284862568826, 121.0),
    "stratified/public/case3/n=1000/alpha_S=alpha/atom3": (
        15.65304386482029, 3.975862511529371e-05, 0.9110063769133451, 0.9110461355384604,
        0.00208732781855292, 136.65095653700175, 121.0),
    "enrichment/sponsor/case1/n=50/atom0": (
        471.1670908072909, 0.32277103595631684, 0.0, 0.32277103595631684,
        477.1670908072909, 0.0, 6.0),
    "enrichment/sponsor/case1/n=137/atom1": (
        1.2655705408123712, 0.024999999999999977, 0.0, 0.024999999999999977,
        15.965570540812372, 0.0, 14.700000000000001),
    "enrichment/sponsor/case1/n=1000/atom2": (
        1124.0, 0.9999999999999998, 0.0, 0.9999999999999998,
        1225.0, 0.0, 101.0),
    "enrichment/sponsor/case3/n=50/atom3": (
        16.81652334870403, 0.23886323519652974, 0.0, 0.23886323519652974,
        34.24509477727546, 0.0, 17.42857142857143),
    "enrichment/sponsor/case3/n=137/atom0": (
        35.065449317467596, 0.6995051555194769, 0.0, 0.6995051555194769,
        63.67973503175332, 0.0, 28.614285714285717),
    "enrichment/sponsor/case3/n=1000/atom1": (
        -139.50243225861686, 0.024999999999999977, 0.0, 0.024999999999999977,
        0.06899631281173337, 0.0, 139.57142857142858),
    "enrichment/public/case1/n=50/atom2": (
        746.279430517283, 0.614105657565129, 0.0, 0.614105657565129,
        752.279430517283, 0.0, 6.0),
    "enrichment/public/case1/n=137/atom3": (
        270.6164480024579, 0.5434599009570626, 0.0, 0.5434599009570626,
        285.3164480024579, 0.0, 14.700000000000001),
    "enrichment/public/case1/n=1000/atom0": (
        598.9992818192225, 0.9999989740274609, 0.0, 0.9999989740274609,
        699.9992818192225, 0.0, 101.0),
    "enrichment/public/case3/n=50/atom1": (
        -18.30357142857143, 0.024999999999999977, 0.0, 0.024999999999999977,
        -0.8749999999999992, 0.0, 17.42857142857143),
    "enrichment/public/case3/n=137/atom2": (
        89.12925601350342, 0.9611717692064421, 0.0, 0.9611717692064421,
        117.74354172778914, 0.0, 28.614285714285717),
    "enrichment/public/case3/n=1000/atom3": (
        -87.07886244426636, 0.9998584024221375, 0.0, 0.9998584024221375,
        52.49256612716222, 0.0, 139.57142857142858),
}


@pytest.mark.parametrize("case", list(cases()), ids=key)
def test_one_atom_prior_matches_golden(case):
    family, perspective, market, n, share, atom = case
    scenario = make_scenario(lambda_S=LAMBDA_S, perspective=perspective,
                             case=CASES[market])
    alpha_S = None if share is None else SHARES[share] * scenario.alpha
    one_atom = scenario.with_prior(DiscretePrior(((ATOMS[atom], 1.0),)))
    result = eu_prior_averaged(DesignSpec(family, n=n, alpha_S=alpha_S), one_atom)
    assert tuple(getattr(result, f) for f in _FIELDS) == GOLDEN[key(case)]
