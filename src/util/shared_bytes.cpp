#include "util/shared_bytes.h"

#include <cstring>
#include <stdexcept>

namespace wakurln::util {

namespace {
thread_local std::uint64_t g_allocation_count = 0;
thread_local std::uint64_t g_allocated_bytes = 0;
}  // namespace

SharedBytes::SharedBytes(Bytes data)
    : buf_(std::make_shared<const Bytes>(std::move(data))) {
  data_ = buf_->data();
  size_ = buf_->size();
  ++g_allocation_count;
  g_allocated_bytes += size_;
}

SharedBytes SharedBytes::copy_of(std::span<const std::uint8_t> data) {
  return SharedBytes(Bytes(data.begin(), data.end()));
}

SharedBytes SharedBytes::slice(std::size_t offset, std::size_t len) const {
  if (offset > size_ || len > size_ - offset) {
    throw std::out_of_range("SharedBytes::slice: range outside buffer");
  }
  SharedBytes out;
  out.buf_ = buf_;
  out.data_ = data_ + offset;
  out.size_ = len;
  return out;
}

bool SharedBytes::operator==(const SharedBytes& other) const {
  return *this == other.span();
}

bool SharedBytes::operator==(std::span<const std::uint8_t> other) const {
  // Views of one buffer (the common case on the message fabric) compare
  // equal without reading it.
  return size_ == other.size() &&
         (size_ == 0 || data_ == other.data() ||
          std::memcmp(data_, other.data(), size_) == 0);
}

std::uint64_t SharedBytes::allocation_count() { return g_allocation_count; }
std::uint64_t SharedBytes::allocated_bytes() { return g_allocated_bytes; }

void SharedBytes::fold_in(std::uint64_t count_delta, std::uint64_t bytes_delta) {
  g_allocation_count += count_delta;
  g_allocated_bytes += bytes_delta;
}

}  // namespace wakurln::util
