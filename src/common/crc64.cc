#include "common/crc64.hh"

#include <array>

namespace unico::common {

namespace {

/** Reflected ECMA-182 polynomial (CRC-64/XZ). */
constexpr std::uint64_t kPoly = 0xC96C5795D7870F42ULL;

using Table = std::array<std::uint64_t, 256>;

/**
 * Slicing-by-8 tables. tables[0] is the bytewise table; tables[k][i]
 * is the CRC register after byte i is followed by k zero bytes, so
 * one lookup per byte lane folds eight input bytes at once.
 */
constexpr std::array<Table, 8>
makeTables()
{
    std::array<Table, 8> tables{};
    for (std::uint64_t i = 0; i < 256; ++i) {
        std::uint64_t crc = i;
        for (int bit = 0; bit < 8; ++bit)
            crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
        tables[0][i] = crc;
    }
    for (std::size_t k = 1; k < tables.size(); ++k)
        for (std::size_t i = 0; i < 256; ++i)
            tables[k][i] = (tables[k - 1][i] >> 8) ^
                           tables[0][tables[k - 1][i] & 0xFF];
    return tables;
}

constexpr std::array<Table, 8> kTables = makeTables();

} // namespace

std::uint64_t
crc64(const void *data, std::size_t len, std::uint64_t crc)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    crc = ~crc;
    for (; len >= 8; bytes += 8, len -= 8) {
        // Little-endian word, whatever the host order (the register
        // is reflected: its low byte meets the first input byte).
        std::uint64_t word = 0;
        for (int b = 7; b >= 0; --b)
            word = (word << 8) | bytes[b];
        crc ^= word;
        crc = kTables[7][crc & 0xFF] ^ kTables[6][(crc >> 8) & 0xFF] ^
              kTables[5][(crc >> 16) & 0xFF] ^
              kTables[4][(crc >> 24) & 0xFF] ^
              kTables[3][(crc >> 32) & 0xFF] ^
              kTables[2][(crc >> 40) & 0xFF] ^
              kTables[1][(crc >> 48) & 0xFF] ^ kTables[0][crc >> 56];
    }
    for (; len > 0; ++bytes, --len)
        crc = kTables[0][(crc ^ *bytes) & 0xFF] ^ (crc >> 8);
    return ~crc;
}

} // namespace unico::common
