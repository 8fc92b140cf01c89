#include "ckks/parameters.hpp"

#include "core/logging.hpp"
#include "core/modarith.hpp"

namespace fideslib::ckks
{

void
Parameters::validate() const
{
    if (logN < 4 || logN > 17)
        fatal("logN=%u out of supported range [4,17]", logN);
    if (logDelta < 20 || logDelta > 60)
        fatal("logDelta=%u out of supported range [20,60]", logDelta);
    if (firstModBits < logDelta || firstModBits > 61)
        fatal("firstModBits=%u must be in [logDelta, 61]", firstModBits);
    if (specialModBits < logDelta || specialModBits > 61)
        fatal("specialModBits=%u must be in [logDelta, 61]",
              specialModBits);
    if (dnum == 0 || dnum > multDepth + 1)
        fatal("dnum=%u must be in [1, L+1]", dnum);
    // Conv sums up to digitSize() products of residues below 2^61 in
    // one 128-bit accumulator (K + 1 = digitSize() + 1 in the merged
    // ModDown-and-Rescale), and the key-switch inner product sums dnum
    // of them: more than 64 terms could overflow it.
    if (digitSize() > 63)
        fatal("digit size %u (L=%u, dnum=%u) exceeds 63 limbs",
              digitSize(), multDepth, dnum);
    if (dnum > 64)
        fatal("dnum=%u exceeds 64 digits", dnum);
    if (secretHammingWeight < 0 ||
        secretHammingWeight > static_cast<i64>(ringDegree()))
        fatal("invalid secret Hamming weight");
    if (numDevices == 0)
        fatal("numDevices must be at least 1");
    if (streamsPerDevice == 0)
        fatal("streamsPerDevice must be at least 1");
}

Parameters
Parameters::paper16()
{
    Parameters p;
    p.logN = 16;
    p.multDepth = 29;
    p.logDelta = 59;
    p.dnum = 4;
    p.secretHammingWeight = 192;
    return p;
}

Parameters
Parameters::paper13()
{
    Parameters p;
    p.logN = 13;
    p.multDepth = 5;
    p.logDelta = 36;
    p.dnum = 2;
    p.firstModBits = 50;
    p.specialModBits = 50;
    return p;
}

Parameters
Parameters::paper14()
{
    Parameters p;
    p.logN = 14;
    p.multDepth = 13;
    p.logDelta = 49;
    p.dnum = 3;
    return p;
}

Parameters
Parameters::paper15()
{
    Parameters p;
    p.logN = 15;
    p.multDepth = 21;
    p.logDelta = 54;
    p.dnum = 4;
    return p;
}

Parameters
Parameters::testSmall()
{
    Parameters p;
    p.logN = 10;
    p.multDepth = 4;
    p.logDelta = 36;
    p.dnum = 2;
    p.firstModBits = 50;
    p.specialModBits = 50;
    p.limbBatch = 2;
    return p;
}

Parameters
Parameters::testBoot()
{
    Parameters p;
    p.logN = 12;
    p.multDepth = 24;
    p.logDelta = 50;
    p.dnum = 4;
    // Keep q0/Delta small: bootstrap noise is amplified by roughly
    // Keff * (q0/Delta), so a q0 far above Delta buries the
    // ApproxModEval sine under the arithmetic noise (this is why the
    // paper's bootstrappable sets use Delta=59, q0=60).
    p.firstModBits = 55;
    p.specialModBits = 58;
    p.secretHammingWeight = 64;
    return p;
}

Parameters
Parameters::phantomSim() const
{
    Parameters p = *this;
    p.fusion = false;
    p.limbBatch = 0; // one kernel spans all limbs
    return p;
}

} // namespace fideslib::ckks
