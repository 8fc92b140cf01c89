#include "ckks/serial.hpp"

#include <istream>
#include <ostream>
#include <sstream>

#include "core/logging.hpp"

namespace fideslib::ckks::serial
{

namespace
{

constexpr u32 kMagicCt = 0x46494443; // "FIDC"
constexpr u32 kMagicPt = 0x46494450; // "FIDP"
constexpr u32 kVersion = 1;

void
writeU64(std::ostream &os, u64 v)
{
    os.write(reinterpret_cast<const char *>(&v), sizeof(v));
}

u64
readU64(std::istream &is)
{
    u64 v = 0;
    is.read(reinterpret_cast<char *>(&v), sizeof(v));
    if (!is)
        fatal("serial: truncated stream");
    return v;
}

void
writePoly(std::ostream &os, const HostPoly &p)
{
    writeU64(os, p.level);
    writeU64(os, p.special);
    writeU64(os, p.eval ? 1 : 0);
    writeU64(os, p.limbs.size());
    for (const auto &limb : p.limbs) {
        writeU64(os, limb.size());
        os.write(reinterpret_cast<const char *>(limb.data()),
                 limb.size() * sizeof(u64));
    }
}

HostPoly
readPoly(std::istream &is)
{
    HostPoly p;
    p.level = static_cast<u32>(readU64(is));
    p.special = static_cast<u32>(readU64(is));
    p.eval = readU64(is) != 0;
    p.limbs.resize(readU64(is));
    for (auto &limb : p.limbs) {
        limb.resize(readU64(is));
        is.read(reinterpret_cast<char *>(limb.data()),
                limb.size() * sizeof(u64));
        if (!is)
            fatal("serial: truncated limb data");
    }
    return p;
}

void
writeScale(std::ostream &os, long double scale)
{
    double d = static_cast<double>(scale);
    os.write(reinterpret_cast<const char *>(&d), sizeof(d));
}

long double
readScale(std::istream &is)
{
    double d = 0;
    is.read(reinterpret_cast<char *>(&d), sizeof(d));
    return static_cast<long double>(d);
}

} // namespace

void
write(std::ostream &os, const HostCiphertext &ct)
{
    writeU64(os, kMagicCt);
    writeU64(os, kVersion);
    writeU64(os, ct.logN);
    writeU64(os, ct.slots);
    writeScale(os, ct.scale);
    writeScale(os, static_cast<long double>(ct.noiseBits));
    writePoly(os, ct.c0);
    writePoly(os, ct.c1);
}

HostCiphertext
readCiphertext(std::istream &is)
{
    if (readU64(is) != kMagicCt)
        fatal("serial: not a FIDESlib ciphertext stream");
    if (readU64(is) != kVersion)
        fatal("serial: unsupported ciphertext version");
    HostCiphertext ct;
    ct.logN = static_cast<u32>(readU64(is));
    ct.slots = static_cast<u32>(readU64(is));
    ct.scale = readScale(is);
    ct.noiseBits = static_cast<double>(readScale(is));
    ct.c0 = readPoly(is);
    ct.c1 = readPoly(is);
    return ct;
}

void
write(std::ostream &os, const HostPlaintext &pt)
{
    writeU64(os, kMagicPt);
    writeU64(os, kVersion);
    writeU64(os, pt.logN);
    writeU64(os, pt.slots);
    writeScale(os, pt.scale);
    writePoly(os, pt.poly);
}

Ciphertext
moveToContext(const Context &src, const Context &dst,
              const Ciphertext &ct)
{
    // Genuinely exercise the wire format (not just the host adapter):
    // the bytes crossing the shard boundary are exactly what a
    // network hop would carry.
    std::stringstream wire;
    write(wire, adapter::toHost(src, ct));
    return adapter::toDevice(dst, readCiphertext(wire));
}

HostPlaintext
readPlaintext(std::istream &is)
{
    if (readU64(is) != kMagicPt)
        fatal("serial: not a FIDESlib plaintext stream");
    if (readU64(is) != kVersion)
        fatal("serial: unsupported plaintext version");
    HostPlaintext pt;
    pt.logN = static_cast<u32>(readU64(is));
    pt.slots = static_cast<u32>(readU64(is));
    pt.scale = readScale(is);
    pt.poly = readPoly(is);
    return pt;
}

} // namespace fideslib::ckks::serial
