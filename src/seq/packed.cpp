#include "seq/packed.hpp"

#include <array>
#include <cstring>
#include <stdexcept>

namespace swr::seq {

void pack2(std::span<const Code> codes, std::uint8_t* out) {
  for (std::size_t i = 0; i < codes.size(); ++i) {
    const Code c = codes[i];
    if (c >= 4) throw std::invalid_argument("pack2: bad code");
    if ((i & 3u) == 0) out[i >> 2] = 0;
    out[i >> 2] = static_cast<std::uint8_t>(out[i >> 2] | (c << ((i & 3u) * 2)));
  }
}

namespace {

// The four codes each packed byte holds, lowest bit pair first: one table
// load per byte instead of four shift-and-mask steps.
using Quad = std::array<Code, 4>;
constexpr std::array<Quad, 256> kUnpack2 = [] {
  std::array<Quad, 256> t{};
  for (unsigned b = 0; b < 256; ++b) {
    for (unsigned k = 0; k < 4; ++k) t[b][k] = static_cast<Code>((b >> (2 * k)) & 0x3u);
  }
  return t;
}();

}  // namespace

void unpack2(const std::uint8_t* in, std::size_t n, Code* out) {
  const std::size_t whole = n / 4;
  for (std::size_t b = 0; b < whole; ++b) {
    std::memcpy(out + 4 * b, kUnpack2[in[b]].data(), sizeof(Quad));
  }
  for (std::size_t i = 4 * whole; i < n; ++i) {
    out[i] = static_cast<Code>((in[i >> 2] >> ((i & 3u) * 2)) & 0x3u);
  }
}

PackedDna::PackedDna(const Sequence& s) {
  if (s.alphabet().id() != AlphabetId::Dna) {
    throw std::invalid_argument("PackedDna: sequence is not DNA");
  }
  words_.reserve((s.size() + 31) / 32);
  for (std::size_t i = 0; i < s.size(); ++i) push_back(s[i]);
}

void PackedDna::push_back(Code c) {
  if (c >= 4) throw std::invalid_argument("PackedDna::push_back: bad code");
  const std::size_t word = size_ >> 5;
  const unsigned shift = (size_ & 31u) * 2;
  if (word == words_.size()) words_.push_back(0);
  words_[word] |= static_cast<std::uint64_t>(c) << shift;
  ++size_;
}

Sequence PackedDna::unpack(std::string name) const {
  std::vector<Code> codes;
  codes.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) codes.push_back((*this)[i]);
  return Sequence(dna(), std::move(codes), std::move(name));
}

}  // namespace swr::seq
