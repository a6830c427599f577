"""The embedding JSON writer that PlanarEmbedding.to_json replaced: its
canonical_data and to_json, kept verbatim (self renamed emb) as the
reference to_json is held to byte for byte.
"""

import json


def canonical_data(emb) -> dict:
    return {
        "rotations": {str(v): list(emb.rot[v]) for v in sorted(emb.rot)},
        "nesting": [list(e) for e in emb.nesting],
        "face_tuple": list(emb.face_tuple),
    }


def reference_to_json(emb) -> str:
    return json.dumps(canonical_data(emb), sort_keys=True)
