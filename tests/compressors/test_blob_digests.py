"""Byte-identity guard for every registry variant.

The encoding layer (:mod:`repro.encoding`) promises byte-identical
output: a rewrite of a bit-packing kernel may change how fast or how
lean a codec runs, never the blob it emits or the array it rebuilds.
The digests below pin ``compress()`` and ``decompress()`` for all 42
registry variants on three seeded inputs:

- a bench-scale 2-D field (ne=6: 1,946 columns);
- a bench-scale 3-D field (8 levels x 1,946 columns);
- a multi-block field (4 levels x 48,602 ne=30 columns), long enough
  that every packed stream spans many kernel blocks.

They were recorded from the whole-array kernels, so a kernel that
drifts by one bit or one byte fails here instead of shifting Tables
2-8 quietly.
"""

import hashlib

import numpy as np
import pytest

from repro.compressors.registry import get_variant, variant_names

#: input name -> (shape, seed)
INPUTS = {
    "bench2d": ((1946,), 1),
    "bench3d": ((8, 1946), 2),
    "multiblock": ((4, 48602), 3),
}

#: input -> variant -> (blob digest, reconstruction digest)
DIGESTS = {
    "bench2d": {
        "GRIB2": ("591f72ea8cd745c7edf347defb54aa6c",
                 "5ed9222de0399cbe353a07500816f763"),
        "APAX-2": ("ffa74c2b2f7be9def605fbe0bfc4da97",
                  "7ac5674689e01713dd56dc263f768e42"),
        "APAX-3": ("ccd9f54140e7d11ee1522ecd672245c7",
                  "2a603d569f049ccd0a83565046671318"),
        "APAX-4": ("dd6c62c5e8b7560e027d64805313218e",
                  "e6e00167ad44c81fb8f47d6dcfaf3a85"),
        "APAX-5": ("e55036edeb45e1e941e34a1fb5c62ffa",
                  "8fbb1a55966ea8b84f1f3e00dd4b1b3b"),
        "APAX-6": ("d57bcff860996a578571e9da81f412d2",
                  "4ab607cf718291ffb57c28d9267945ea"),
        "APAX-7": ("2f93699fc9c7b08972d7ec3c3b2f51aa",
                  "39cdf985f1053d4c78923ded75ab7096"),
        "fpzip-8": ("9dbeddc094eb45aacf1a65ffeb6b8d97",
                   "0fe5e67fc643e1f167d36611b0f7511a"),
        "fpzip-16": ("6679b17281254a52a05488ab484162a7",
                    "a419a873cbd54bf9148a78316306afec"),
        "fpzip-24": ("07ae87b337dc463134f323e6ac5033d2",
                    "b7d2ed97f46a54abbebd02388becffef"),
        "fpzip-32": ("c3df934f67732020422b3b87a196cb9f",
                    "f9861cb2d43fab06bab971bfb7515116"),
        "ISA-0.1": ("91a3e69b361d0649e57418b748067256",
                   "4f6bf50c5a2516c402532f4a4b35abe4"),
        "ISA-0.5": ("aff8b079f3ee8133b081287ae3281582",
                   "4f6bf50c5a2516c402532f4a4b35abe4"),
        "ISA-1.0": ("1b2825903c6dfc14b6c0ec8ceb4d2b53",
                   "4f6bf50c5a2516c402532f4a4b35abe4"),
        "NetCDF-4": ("a62e1d9c1cd34d7d069d3283d9f2292a",
                    "f9861cb2d43fab06bab971bfb7515116"),
        "ISOBAR": ("868afbc0a82aa14651cfc3ac5015606f",
                  "f9861cb2d43fab06bab971bfb7515116"),
        "MAFISC": ("622f5063f25dd90b4ceeeb2d99bc0cc2",
                  "f9861cb2d43fab06bab971bfb7515116"),
        "LZMA": ("2a2b07a9ab24222383b1e950c66d332a",
                "f9861cb2d43fab06bab971bfb7515116"),
        "fpzip-32-lorenzo": ("b10cd9d7eeb37f5ac85fbf5ebcbafc28",
                            "f9861cb2d43fab06bab971bfb7515116"),
        "SZ-rel-0.01": ("9f389e8dc3582a670424a0bac26824ea",
                       "02b8f793aae3856ecc7a4b5090fe901f"),
        "SZ-rel-0.005": ("07cdcf62e790c19de57f48af61e64d1a",
                        "267e4a9938b846be0db4f691f852fa47"),
        "SZ-rel-0.002": ("77944cdcc53888fcd9fcb83147353596",
                        "f8a0a8adc65c96f151ee12741484b40d"),
        "SZ-rel-0.001": ("b27f29c19b0bf3bfe1212d024fcc3b08",
                        "6af1d62f7c7c941ca442a1d467296784"),
        "SZ-rel-0.0005": ("e28fca73a74ca417e37def1076f4a6eb",
                         "a104977b446f930248568b2a3c82e32c"),
        "SZ-rel-0.0002": ("41b87e32fd3dc9935eef5a44ff445eb8",
                         "fcf8d0efb2ac1160258956f9df5c5a10"),
        "SZ-rel-0.0001": ("c597044c01a3fdcc6405d4d6b7dfb1e6",
                         "02c32395b8a00bdb68c758c67405c098"),
        "SZ-rel-5e-05": ("12f36b1facce1dbf82f295829d77dc7a",
                        "3f863027ed2b6b34388da81f63b1b32f"),
        "SZ-rel-2e-05": ("fcb1f9620d78257cf2ba71c33cfb642e",
                        "d3efc76d85c4585c641e13229412681e"),
        "SZ-rel-1e-05": ("8f398d76d1df2af2317eca593a503c87",
                        "51aa068d44a18f39629c9e2a4750eb18"),
        "SZ-abs-0.001": ("e59fb7f3fc8bea491e1b1b79abff9c5b",
                        "20eaf9a5690260153952631b042198c5"),
        "SZ-pw-0.01": ("e6950de6cf40a48bb22822fb00d38d6d",
                      "f956a9a2a420b46426ab2ddb7d33e9d9"),
        "SZ-pw-0.005": ("476177bf03e022bd8d77920b5e67611b",
                       "b083604dc0574b8e3c3e7eb15c74e1cf"),
        "SZ-pw-0.002": ("60bd8f259f60de0616bdc29b4c9f873a",
                       "a21c8e481849c3369805b8371d8b7c67"),
        "SZ-pw-0.001": ("088a31cb3e7a49405bcd33f6097a97f3",
                       "5755ffc607cbcd1cdb1dde20980d32e1"),
        "SZ-rel-0.001-delta": ("d248c0a9e216e510da68ebde8cb7e884",
                              "6af1d62f7c7c941ca442a1d467296784"),
        "BR-4": ("d2eb71115a25da1e348c893f30e0c452",
                "a7bed78199dc8a835ad8f0b236546871"),
        "BR-6": ("6238d8761f77b8071d212d45ef540020",
                "c852376dd898d3807a72937a8e994b2d"),
        "BR-8": ("395a8de5a440b5f21c83a840b4f29629",
                "9e9f7186823e377228b474020b17cc2a"),
        "BR-10": ("73adf8e7c1402515054fd5a9390c60ee",
                 "a460d86bcc9e6b2823822753193bb431"),
        "BR-12": ("6f9ca836f711d0839bf71bb0585e9070",
                 "9a0f3b1765fa7d5dd35930b04fc8127b"),
        "BR-16": ("d6ab98e19d09ed3d90ae913b056f51f3",
                 "afbaa25c1d4c1a1ffbb528717d191aaf"),
        "BR-auto": ("3bd069859b8f16185d0a333d2c38fd03",
                   "a460d86bcc9e6b2823822753193bb431"),
    },
    "bench3d": {
        "GRIB2": ("5bbf3df4b4e22c15ca04d1c39d729b77",
                 "ff3e2ff39c9c751dc83282887eeded43"),
        "APAX-2": ("c6342258afe075f7151801439fa3c81a",
                  "4d8d388a8a940bc7921f550b7fd459c0"),
        "APAX-3": ("16b82ee35b4364ee713e3b6caa1fd662",
                  "0a97a7baf5a779bb889adba283e84f07"),
        "APAX-4": ("3ef221df8b462539a98a21b0da7d7b10",
                  "976fbe3fc0d16cf6c8bd336ec8af11bb"),
        "APAX-5": ("a391eb8241c665c9c3bd414c4d78527c",
                  "274cd27d359fb80bf3ff3f1382a7c568"),
        "APAX-6": ("b3cdea88985db22816d0904a532b74e0",
                  "b3fdf2d943134773bd103ada89fd018b"),
        "APAX-7": ("d419c98ee3564899b6f0e5aebf130793",
                  "0a687a329c012844cef828c1e0e06c28"),
        "fpzip-8": ("6c5f13e11bbc55decbecf9e5c2e048d0",
                   "decdeeef76689324f783762363b55d16"),
        "fpzip-16": ("c549284f27fbe6f6f45f2bca1d7caa0d",
                    "5dd8cfb342454f7ae3766a3a5ac7d4eb"),
        "fpzip-24": ("25edf84572e87cfbc1728ebbf35856ff",
                    "b67d28243c2e78f2f3680980c5249f3e"),
        "fpzip-32": ("bda77803e24d66c347b2b8fd64f85cbb",
                    "409fdb79daf8a4aa11924c079eda2f4c"),
        "ISA-0.1": ("8251cdc411b26e699dd3daddd3ef6467",
                   "f80ef36400a9b812322cc1a637608248"),
        "ISA-0.5": ("8ddf2aa7e05fd582839862d96ec222eb",
                   "8fb0a61a4a3cb58babe07ca419b0a0fc"),
        "ISA-1.0": ("28cc7b067dbee336295236f49aef7e7e",
                   "833cc9059d68fa2ae9fdfe8911e9375f"),
        "NetCDF-4": ("4dd2bd5e35352aa786f9b6dca3627445",
                    "409fdb79daf8a4aa11924c079eda2f4c"),
        "ISOBAR": ("c1675216f4e13e080fb247a3a770f346",
                  "409fdb79daf8a4aa11924c079eda2f4c"),
        "MAFISC": ("acc4e5deb4b989d1b0db17dcf928c209",
                  "409fdb79daf8a4aa11924c079eda2f4c"),
        "LZMA": ("93ee8c2ac6ec308c447f0ec7a0bcb4d1",
                "409fdb79daf8a4aa11924c079eda2f4c"),
        "fpzip-32-lorenzo": ("bea9545a727560c64a8300788377269a",
                            "409fdb79daf8a4aa11924c079eda2f4c"),
        "SZ-rel-0.01": ("0df7f0ce03852da46fcb70e663505f19",
                       "29e21d4b7b3c58c204712b3242d3a8db"),
        "SZ-rel-0.005": ("ed66de8fb3f5ec9d8ec9eb688db8cedb",
                        "2e46a9cca471b7ca6f125757d9cdde9f"),
        "SZ-rel-0.002": ("da2c341c1cda99f4db1ec98558cc8517",
                        "cbcb86b1b2c5120c036fc27303c1841e"),
        "SZ-rel-0.001": ("61e3762e3b9b4746d9041a04132c5044",
                        "f0616f46c69e364d70da8a5792331988"),
        "SZ-rel-0.0005": ("dd41d52b77582ee68608aaabb5be2a2a",
                         "fe198ac92e7a9c63b6b853fe6a3fc4dc"),
        "SZ-rel-0.0002": ("abdddc3a45374b7643b195348a929220",
                         "8a1e07199398b59e581eeac6930fb03a"),
        "SZ-rel-0.0001": ("8ed2150f5127b9fcb4d0b7a75b00a2f7",
                         "622dafbb679576d83aa7d1673daff38d"),
        "SZ-rel-5e-05": ("963dfa146f2d6d55c2db9abae41f1a7b",
                        "a95378141e17da2131da9ca6fdb3f0a9"),
        "SZ-rel-2e-05": ("e737355ff268ffb47a95c06140221a9c",
                        "00009939501a3e1a8f52f407f70403ec"),
        "SZ-rel-1e-05": ("d2ab2d032d6fc3dfc6681667a80136eb",
                        "59708d2f41bb89a1f0f630357ca4ad4b"),
        "SZ-abs-0.001": ("e9406f9a29da873e4519603c41924f11",
                        "a6290e5b9de938ea466ead4ce0901b45"),
        "SZ-pw-0.01": ("550a4d0258af6746bfb5bf8d92a41683",
                      "9b69d5572f46af59467e8dc2b96bad7e"),
        "SZ-pw-0.005": ("a08f740aa890486afeb0ce51ea137606",
                       "22aab15dd0d532777774fee76805ffe3"),
        "SZ-pw-0.002": ("5a72206aa0acf567cd2a561784388ba4",
                       "b0596a06c541d4309db877e0fbe5cf0f"),
        "SZ-pw-0.001": ("c3d7aad0018c2c1686c4d628aba19e2f",
                       "af70d5308091e83d201c8520931a852f"),
        "SZ-rel-0.001-delta": ("929d27db0ad55f1887f0e75901afacf4",
                              "f0616f46c69e364d70da8a5792331988"),
        "BR-4": ("b91448dee37d751a76eff866f06a3d1e",
                "4e80caae89d823789e7bdd6880fbc99b"),
        "BR-6": ("96af6fc1434d796dbaefd922b4dc6bc7",
                "6e6d909df6a5b13900825edeb49d0896"),
        "BR-8": ("b36e8ed1f0deb4f7c87ef0ab890c72bc",
                "86d81ecd04026238340aa5dc47b85898"),
        "BR-10": ("17b56f0d4fa3b7a8fdfbfde70ad84f8b",
                 "592e815967781516fb4913bad6fed561"),
        "BR-12": ("e352016a680c6f4c090dd2877dc4a5df",
                 "1987e9f9ef10d9284eb879e86d59353a"),
        "BR-16": ("c1a26ac694064dff9a0b410bd8e8f67f",
                 "5d58482cca82139d9add00f125e1f442"),
        "BR-auto": ("5ab5a6a28574f621082a66973626b7f3",
                   "592e815967781516fb4913bad6fed561"),
    },
    "multiblock": {
        "GRIB2": ("6a5ed8551172313a6341d51777d40eb6",
                 "d22f6a39c43818a544559b0ccea506cd"),
        "APAX-2": ("db5a176b60df70a697bca4bbc10d39a8",
                  "4affeb15796a4693509a30a1d94d0a93"),
        "APAX-3": ("14e13db9052b9b0bb461edf657220e40",
                  "a577404f0da92589d74525e7e6b33287"),
        "APAX-4": ("185e60b068dcd4958bc2689e7fa85a17",
                  "38664acf6fe8e350bc4c0501c3f93e28"),
        "APAX-5": ("f9473c4712117aa44759bd9dbb40c2f4",
                  "cd563b4a781044cfa63738ee4543f96b"),
        "APAX-6": ("8cc177e6537be9c8e90e8eae1c4d58b9",
                  "137562a850a2ca48af32c9bef83068dc"),
        "APAX-7": ("43c29b60c1df82794e98780e2210a84e",
                  "fd5804c52a55ffa37ad8bfe1f65aef58"),
        "fpzip-8": ("a24321633c4a4dbbeb614e7909e95adf",
                   "ec457cf6e472e0cf595b0fe1c378cc2c"),
        "fpzip-16": ("5e8ce3a338a7dd5c4959e5a82a0ad105",
                    "00e5bc0e2df82e8f1f2c5482a814b0c9"),
        "fpzip-24": ("5122298af2ce17c88982b44fe8064c89",
                    "5f12ef5c31851cccd4deebb490f38fab"),
        "fpzip-32": ("dffeb6a1f6fa457d6aa3ffe2abc21a4c",
                    "98e1ba2d5a4c6eb9af22a9814a4999d5"),
        "ISA-0.1": ("5ce32c5285aa30b28f08f1ee764c9600",
                   "21fe6f5f77fb51f6f3a0a5c80ee912c0"),
        "ISA-0.5": ("59cf6712e80fc601514f5c5e26f2294d",
                   "6aaedaeb55ef9cb346b9649bdc0f936d"),
        "ISA-1.0": ("8916fdcdfd78a36deefb4e02df4fa8c7",
                   "bddc23fb8640bf4578f093dd0d58a41b"),
        "NetCDF-4": ("bdcfed27942b555093c9330bba30f3f5",
                    "98e1ba2d5a4c6eb9af22a9814a4999d5"),
        "ISOBAR": ("4658ea01bb34fdcbfbb63f6592bbde08",
                  "98e1ba2d5a4c6eb9af22a9814a4999d5"),
        "MAFISC": ("04ca69d92b43c5c41b9faed25807299a",
                  "98e1ba2d5a4c6eb9af22a9814a4999d5"),
        "LZMA": ("4b8ff6f6dd09822daa56d5a3ce892ae9",
                "98e1ba2d5a4c6eb9af22a9814a4999d5"),
        "fpzip-32-lorenzo": ("0d343025d40a67ab5e3065e160afe7ef",
                            "98e1ba2d5a4c6eb9af22a9814a4999d5"),
        "SZ-rel-0.01": ("e8775c2e9e0044b691c2f5549b3de101",
                       "4c3c804b9dbb9d692b8fba9a61585cb9"),
        "SZ-rel-0.005": ("f448801ff6745c7c8015c090417cb8e0",
                        "05856e6bd1b402eddc6eb21169c31033"),
        "SZ-rel-0.002": ("7a8e08682deca0a7bb9c693e8165819d",
                        "4770bb58cc3b693e2f720072c29c832c"),
        "SZ-rel-0.001": ("b2b7618aa045b2ff873c9fcf634b69ec",
                        "8dbb7cf231ece675642f702b2827a2da"),
        "SZ-rel-0.0005": ("7581d84f4a8b2518e1f0c00ef80fef44",
                         "b169f7f0492f9333a2e5eae3243bb04f"),
        "SZ-rel-0.0002": ("2dc15bfd8f990fc0db0803bcd07f7cdf",
                         "f218705c6c88e590415f5206712488ca"),
        "SZ-rel-0.0001": ("29de74a737f2ad246097ffd64f9dde47",
                         "97b4440517a67ba535559a9480fd57f0"),
        "SZ-rel-5e-05": ("77af4f4b01a433290a47fc347c6b73f1",
                        "601870c60e8a2f68e4f03fc4d667e85f"),
        "SZ-rel-2e-05": ("bfdde88004f23d489a3448a96650347d",
                        "fe3c55c3cfbd90d9966b84e6ae2181b4"),
        "SZ-rel-1e-05": ("afe3cbb1828a049c5ff609e519d63773",
                        "cd0577801ef54d1f8ecc6a88ac67a583"),
        "SZ-abs-0.001": ("724f0317124649a0f87ecf595a2ef12a",
                        "39a7bb2d783ad8ed7a758b9311e798cf"),
        "SZ-pw-0.01": ("889d2ddc4b6635c773c388315d7ca7db",
                      "ada8dae3d432ed94348ed755c525cc0b"),
        "SZ-pw-0.005": ("ceee80953cc236622e23375a2ab895aa",
                       "50004faf234b8b9e2800959089977592"),
        "SZ-pw-0.002": ("992efa41a5b7062e01416b6e4fd06c8e",
                       "9d7fdd24dd018164730874c7da4d4490"),
        "SZ-pw-0.001": ("4d4b0a6b3357381b711a5d5214bc3c0a",
                       "75a63071da6cb38a8504bfbfa5b10abd"),
        "SZ-rel-0.001-delta": ("4fb5a445f96d7aff62076ae4d1121ade",
                              "8dbb7cf231ece675642f702b2827a2da"),
        "BR-4": ("d28b739d35aa52385830ea4947dd93b9",
                "e271744ac5650b1feb6d2efa35b4691f"),
        "BR-6": ("c0e313178763546cc763192642716b52",
                "2b98162d301f47167293482bba1d9966"),
        "BR-8": ("c8edba3f20c8963a98785d70fb2c29ab",
                "4151a54105d15b35cf943397c70a74be"),
        "BR-10": ("19aa313a48ced1ec514cb2d1abfa3617",
                 "bdf567b60b2471de3a0b655617a296a0"),
        "BR-12": ("c1f9d3fdab3e892f3db12ec8c365ce2d",
                 "64269ba33b67b55c95e1a1a8172fa7df"),
        "BR-16": ("ab1395578a692f1de4bc827ce0756985",
                 "1b8fdbe1d815a825d12db5ec9b7760f6"),
        "BR-auto": ("eeeab267b6bf168b65536a6f5c0dca47",
                   "c1998f5e206413e8f6edfc71c7f2337a"),
    },
}


def seeded_field(shape: tuple[int, ...], seed: int) -> np.ndarray:
    """A smooth wave per level plus a random walk and white noise."""
    rng = np.random.default_rng(seed)
    ncol = shape[-1]
    lon = np.linspace(0.0, 2 * np.pi, ncol, endpoint=False)
    lev = np.arange(int(np.prod(shape[:-1])))[:, None]
    base = 250.0 + 30.0 * np.sin(lon)[None, :] * np.cos(0.3 * lev + 1.0)
    walk = rng.normal(0.0, 0.5, size=base.shape).cumsum(axis=-1) * 0.05
    noise = rng.normal(0.0, 0.01, size=base.shape)
    return (base + walk + noise).astype(np.float32).reshape(shape)


def digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


@pytest.fixture(scope="module", params=list(INPUTS))
def field(request) -> tuple[str, np.ndarray]:
    shape, seed = INPUTS[request.param]
    return request.param, seeded_field(shape, seed)


def test_every_variant_is_pinned():
    assert len(variant_names()) == 42
    for name in INPUTS:
        assert set(DIGESTS[name]) == set(variant_names())


@pytest.mark.parametrize("variant", variant_names())
def test_blob_and_reconstruction_digests(field, variant):
    name, data = field
    codec = get_variant(variant)
    blob = codec.compress(data)
    recon = np.ascontiguousarray(codec.decompress(blob))
    assert recon.shape == data.shape
    assert (digest(blob), digest(recon.tobytes())) == DIGESTS[name][variant]
