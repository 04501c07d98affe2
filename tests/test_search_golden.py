"""Byte identity of the verdicts of both searches, greedy and exhaustive.

`test_golden.py` pins what `check` prints; nothing there reaches the
oracle.  Here each case of a fixed pool is decided by :func:`decide` and by
:func:`exhaustive_decide`, and the sha256 of each verdict's canonical JSON
is compared with a digest taken before the searches walked state bitmasks,
when they still walked label tuples.  A change to a protocol's blocks or
bases, to the order of a family's partitions, or to a certificate's edges
changes a digest.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from loccdist import (
    Ensemble,
    apply_local_unitaries,
    catalog,
    decide,
    exhaustive_decide,
    random_product_basis,
    random_unitary,
    verdict_to_json,
)
from loccdist.jsonio import canonical_dumps

# the sweep benchmark's dims, every party order of each
DIMS = ((2, 2), (2, 3), (3, 2), (3, 3), (2, 2, 2), (2, 2, 3), (2, 3, 2), (3, 2, 2))


def _pool():
    """40 generated bases over DIMS and depths 0-5, then 4 bennett9 in new bases and orders."""
    for k in range(40):
        dims, depth = DIMS[k % len(DIMS)], k % 6
        yield f"random-{k}", lambda dims=dims, k=k, depth=depth: random_product_basis(
            dims, 100 + k, depth
        )
    for k in range(4):

        def dressed(k=k):
            e = catalog("bennett9")
            rng = np.random.default_rng(k)
            e = apply_local_unitaries(e, [random_unitary(d, rng) for d in e.dims])
            order = rng.permutation(len(e.labels))
            return Ensemble(e.name, e.dims, [e.states[i] for i in order], e.complete)

        yield f"bennett9-{k}", dressed


POOL = dict(_pool())


def _digest(verdict) -> str:
    return hashlib.sha256(canonical_dumps(verdict_to_json(verdict)).encode("utf-8")).hexdigest()


# case -> (sha256 of decide's verdict, sha256 of exhaustive_decide's verdict)
GOLDEN = {
    "bennett9-0": (
        "9368edd9bbebcded64c8cabd16120bc2a210c30d29e186005d48fd289786ef8b",
        "9368edd9bbebcded64c8cabd16120bc2a210c30d29e186005d48fd289786ef8b",
    ),
    "bennett9-1": (
        "d4923a429b1c4a6cc6542676fc267338816a6f7eff902543fca3ac988624bc98",
        "d4923a429b1c4a6cc6542676fc267338816a6f7eff902543fca3ac988624bc98",
    ),
    "bennett9-2": (
        "57728b50bfc11203c1ab54a56344e7e3476590f113896750f6fbd4f580e56359",
        "57728b50bfc11203c1ab54a56344e7e3476590f113896750f6fbd4f580e56359",
    ),
    "bennett9-3": (
        "918aa9d2cd76de2352919f226c61ff03f97af0fecb7969f1b4f3179838720e58",
        "918aa9d2cd76de2352919f226c61ff03f97af0fecb7969f1b4f3179838720e58",
    ),
    "random-0": (
        "b0aa10a0ecfb26892e6c022f01f0b89c4dea110543fde786fc55dfab0a6d33b5",
        "b0aa10a0ecfb26892e6c022f01f0b89c4dea110543fde786fc55dfab0a6d33b5",
    ),
    "random-1": (
        "66908005958ae0adaf6d4ca6416cc20b3c91f176c8479d7d92b78c9f2c2e0c9b",
        "66908005958ae0adaf6d4ca6416cc20b3c91f176c8479d7d92b78c9f2c2e0c9b",
    ),
    "random-10": (
        "72701581b2943a30c70a4d5f04c27c2cd63fedbdf04a648e86eb0c114f52b073",
        "72701581b2943a30c70a4d5f04c27c2cd63fedbdf04a648e86eb0c114f52b073",
    ),
    "random-11": (
        "1f88f8a638f5500319be0a82867bbd7267a6b7ee9adc9655fd1a5b5a0b0dc983",
        "1f88f8a638f5500319be0a82867bbd7267a6b7ee9adc9655fd1a5b5a0b0dc983",
    ),
    "random-12": (
        "69803e2711c318af026daa64c04c506d3e08fd4c2871ceae38d39b3dfd8f818b",
        "69803e2711c318af026daa64c04c506d3e08fd4c2871ceae38d39b3dfd8f818b",
    ),
    "random-13": (
        "0247012d336f694a66e3ff496b876cd98e552ad1ea05bcbec490ca3785ce5cc6",
        "0247012d336f694a66e3ff496b876cd98e552ad1ea05bcbec490ca3785ce5cc6",
    ),
    "random-14": (
        "456a5a45d5b557ca431e97a54403ecbc73c418afe9952b792dcf37baab75aad9",
        "456a5a45d5b557ca431e97a54403ecbc73c418afe9952b792dcf37baab75aad9",
    ),
    "random-15": (
        "c648dada20cdbf9c735d47921b1b713d24fb4d2ab69b2cb166c146ada93e275b",
        "c648dada20cdbf9c735d47921b1b713d24fb4d2ab69b2cb166c146ada93e275b",
    ),
    "random-16": (
        "9d1d80b5d4bb121e92e9b736cc31880117d4a49af5abd2a46b2b0908fe480562",
        "9d1d80b5d4bb121e92e9b736cc31880117d4a49af5abd2a46b2b0908fe480562",
    ),
    "random-17": (
        "053dd277014bb6da3570f6415a3c1adb001dc2339247d5e549fdb2683e28c400",
        "053dd277014bb6da3570f6415a3c1adb001dc2339247d5e549fdb2683e28c400",
    ),
    "random-18": (
        "6868459f7706708863c8521582b97c5ce2e8de43cee207e34218e758d614b13b",
        "6868459f7706708863c8521582b97c5ce2e8de43cee207e34218e758d614b13b",
    ),
    "random-19": (
        "748ec92ab340173d5bc8451520c94f4ae0017686f1ee9c6f1b2648c4700efb7a",
        "748ec92ab340173d5bc8451520c94f4ae0017686f1ee9c6f1b2648c4700efb7a",
    ),
    "random-2": (
        "4e9ec0cac8be7aac187e973dd9df84fa59b8cbc3a22f86e7d1f0695834fb915d",
        "4e9ec0cac8be7aac187e973dd9df84fa59b8cbc3a22f86e7d1f0695834fb915d",
    ),
    "random-20": (
        "cb808653c9d483eeab77e28b6b3e7161ea820feee98293904bce4bc54061c782",
        "cb808653c9d483eeab77e28b6b3e7161ea820feee98293904bce4bc54061c782",
    ),
    "random-21": (
        "d6bb75f37f421562fd1adc1b070813506159d7c512101d4526e3792840a0c5a9",
        "d6bb75f37f421562fd1adc1b070813506159d7c512101d4526e3792840a0c5a9",
    ),
    "random-22": (
        "d32fea5d434160a96939ed884b777e22ef851a14fc9d283a4b0abda1000ce289",
        "d32fea5d434160a96939ed884b777e22ef851a14fc9d283a4b0abda1000ce289",
    ),
    "random-23": (
        "dd29d9b51d6e243a02f861c51cb2ccc7dc755538114b4403fb237820a3e06d2b",
        "dd29d9b51d6e243a02f861c51cb2ccc7dc755538114b4403fb237820a3e06d2b",
    ),
    "random-24": (
        "b0aa10a0ecfb26892e6c022f01f0b89c4dea110543fde786fc55dfab0a6d33b5",
        "b0aa10a0ecfb26892e6c022f01f0b89c4dea110543fde786fc55dfab0a6d33b5",
    ),
    "random-25": (
        "6572e7a1f7275d1a49fe925abe3e7d0546046ac2fcef439414864974e618d74c",
        "6572e7a1f7275d1a49fe925abe3e7d0546046ac2fcef439414864974e618d74c",
    ),
    "random-26": (
        "8e283917c31024c206157df88744d086bf7d35916e9ae85feda2a40453e67d39",
        "8e283917c31024c206157df88744d086bf7d35916e9ae85feda2a40453e67d39",
    ),
    "random-27": (
        "e9c8c71e181e97e9ffba53b37239bdf83822584cdc795d4f182d14ec0a587b27",
        "e9c8c71e181e97e9ffba53b37239bdf83822584cdc795d4f182d14ec0a587b27",
    ),
    "random-28": (
        "3e366dca06fead44a104680f0b4ddd2b48ad6a4e9971f0bb9715c1e2e902fca6",
        "3e366dca06fead44a104680f0b4ddd2b48ad6a4e9971f0bb9715c1e2e902fca6",
    ),
    "random-29": (
        "83038f6311156d839fa5a27791010eadefdd15f19da4218360096610bc3d2181",
        "83038f6311156d839fa5a27791010eadefdd15f19da4218360096610bc3d2181",
    ),
    "random-3": (
        "9fc16fba7550eaccbf18509759c898209b988140f46c57c0304c3513b4d6eea1",
        "9fc16fba7550eaccbf18509759c898209b988140f46c57c0304c3513b4d6eea1",
    ),
    "random-30": (
        "d9d145ba33a35a2cc9d5e65fb4fad59d6f65de11c20d059005b72cfefd6a68e0",
        "d9d145ba33a35a2cc9d5e65fb4fad59d6f65de11c20d059005b72cfefd6a68e0",
    ),
    "random-31": (
        "51507f3d4cb1ea75a91185fb2893865470cbe1c08976a34113a4872d66f48552",
        "51507f3d4cb1ea75a91185fb2893865470cbe1c08976a34113a4872d66f48552",
    ),
    "random-32": (
        "59aaea36df561ed2c129d3a665c4716b8a5c0c8ed79bfa1cefb1e3126d6a3f23",
        "59aaea36df561ed2c129d3a665c4716b8a5c0c8ed79bfa1cefb1e3126d6a3f23",
    ),
    "random-33": (
        "32f167aebcc16ad1a040c0f5e2a58e44e42835f352c3d21c2c94d0b944a38e36",
        "32f167aebcc16ad1a040c0f5e2a58e44e42835f352c3d21c2c94d0b944a38e36",
    ),
    "random-34": (
        "17d61b54bd27a9b5410ceee77d8bf983b5756f5cfa3d1f4d148101d6a8391fac",
        "17d61b54bd27a9b5410ceee77d8bf983b5756f5cfa3d1f4d148101d6a8391fac",
    ),
    "random-35": (
        "4c3a7ed74dc9e48dad8e9c112a874348ff6241b5ccf873f8c9bd0459e194ce9d",
        "4c3a7ed74dc9e48dad8e9c112a874348ff6241b5ccf873f8c9bd0459e194ce9d",
    ),
    "random-36": (
        "69803e2711c318af026daa64c04c506d3e08fd4c2871ceae38d39b3dfd8f818b",
        "69803e2711c318af026daa64c04c506d3e08fd4c2871ceae38d39b3dfd8f818b",
    ),
    "random-37": (
        "d0bccbd2a4ddddc94bd1ef46235a89a953c67fa9e066e8df733d80676c5eec27",
        "d0bccbd2a4ddddc94bd1ef46235a89a953c67fa9e066e8df733d80676c5eec27",
    ),
    "random-38": (
        "ebcc30a8865ed2dbe0805624a061f7e3b15cd0b37b5cb98d29b7755f1cc3f68b",
        "ebcc30a8865ed2dbe0805624a061f7e3b15cd0b37b5cb98d29b7755f1cc3f68b",
    ),
    "random-39": (
        "432d0101bc28e00e00ac1faf494be40e519fe940766da288c3c2b5b6a7dfe091",
        "432d0101bc28e00e00ac1faf494be40e519fe940766da288c3c2b5b6a7dfe091",
    ),
    "random-4": (
        "f3d1396d89a39a79b1dc552c2aa66c1b9de7a0337f38a58beb11af194aee93e3",
        "f3d1396d89a39a79b1dc552c2aa66c1b9de7a0337f38a58beb11af194aee93e3",
    ),
    "random-5": (
        "ed59553ae81133045e59954800f68b1ae27d78bf60e3a75ef069d7cb30476d08",
        "ed59553ae81133045e59954800f68b1ae27d78bf60e3a75ef069d7cb30476d08",
    ),
    "random-6": (
        "d9d145ba33a35a2cc9d5e65fb4fad59d6f65de11c20d059005b72cfefd6a68e0",
        "d9d145ba33a35a2cc9d5e65fb4fad59d6f65de11c20d059005b72cfefd6a68e0",
    ),
    "random-7": (
        "889bc9dfb8de93c0e1e8aae6d6236ebb75f387a26e745d161a3aae030d119d60",
        "889bc9dfb8de93c0e1e8aae6d6236ebb75f387a26e745d161a3aae030d119d60",
    ),
    "random-8": (
        "c8c1b5998eda404b08faa1f560b0ff8f730687469cccfe2dc97d9e21a95af8c3",
        "c8c1b5998eda404b08faa1f560b0ff8f730687469cccfe2dc97d9e21a95af8c3",
    ),
    "random-9": (
        "67e7d0a3cfc4ad98869fa9595028285f23be30770f871430a4880bb4dbc4d1c4",
        "67e7d0a3cfc4ad98869fa9595028285f23be30770f871430a4880bb4dbc4d1c4",
    ),
}


@pytest.mark.parametrize("case", sorted(POOL))
def test_search_verdicts_are_byte_identical(case):
    e = POOL[case]()
    assert (_digest(decide(e, "complete")), _digest(exhaustive_decide(e))) == GOLDEN[case]
