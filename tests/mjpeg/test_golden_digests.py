"""Golden digests of the codec path.

The encoder's payloads and quantized coefficients, and the frames the
SMP pipeline decodes from them, are pinned to the values the codec
produced before its DCT and entropy coder were vectorised.  Any change
to the arithmetic (contraction order, rounding, bit packing) shows up
here as a digest change.
"""

import hashlib

from repro.cli import main
from repro.mjpeg.stream import generate_stream

#: ``frames sha256`` printed by ``repro run --images 8`` (seed 0).
FRAMES_SHA256 = "aa09939b9078c9dcfddeb82a279be898c0b81ff7ef2097df161bbfd1f9c0860b"
#: sha256 over the concatenated payloads of ``generate_stream(8, 96, 96, 75, seed=0)``.
PAYLOADS_SHA256 = "8c4c51fa966c135b4423faaa4dda0a30e185f13cd46cbe11963a6ab70eebbb17"
#: sha256 over the concatenated int16 ``qcoefs_zz`` arrays of the same stream.
QCOEFS_SHA256 = "0f12e50fd2d344751e1692bca342a7db13e6f047e47bf78efe2b616e6bd305cb"


def test_encoder_payload_and_coefficient_digests():
    stream = generate_stream(8, 96, 96, quality=75, seed=0)
    payloads = hashlib.sha256()
    qcoefs = hashlib.sha256()
    for record in stream:
        payloads.update(record.frame.payload)
        qcoefs.update(record.frame.qcoefs_zz.tobytes())
    assert payloads.hexdigest() == PAYLOADS_SHA256
    assert qcoefs.hexdigest() == QCOEFS_SHA256


def test_run_frames_digest(capsys):
    assert main(["run", "--images", "8"]) == 0
    out = capsys.readouterr().out
    assert f"frames sha256: {FRAMES_SHA256}" in out.splitlines()
