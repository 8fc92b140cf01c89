/**
 * @file
 * Binary serialization of client-side (host) objects -- the
 * Serialize/Deserialize client operations of the paper's Figure 1.
 * Format: little-endian, magic + version header, no compression.
 */

#pragma once

#include <iosfwd>

#include "ckks/adapter.hpp"

namespace fideslib::ckks::serial
{

void write(std::ostream &os, const HostCiphertext &ct);
HostCiphertext readCiphertext(std::istream &is);

void write(std::ostream &os, const HostPlaintext &pt);
HostPlaintext readPlaintext(std::istream &is);

/**
 * Convenience round trip for in-process shard moves: serialize @p ct
 * (joining its pending device work) through the wire format and
 * deserialize under @p dst. Equivalent to write() into a buffer on
 * the source shard followed by readCiphertext() + adapter::toDevice()
 * on the destination.
 */
Ciphertext moveToContext(const Context &src, const Context &dst,
                         const Ciphertext &ct);

} // namespace fideslib::ckks::serial
