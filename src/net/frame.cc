#include "net/frame.h"

#include <charconv>
#include <utility>

#include "common/strings.h"

namespace cxml::net {

std::string EncodeFrame(std::string_view payload) {
  std::string out;
  AppendFrame(&out, payload);
  return out;
}

void AppendFrame(std::string* out, std::string_view payload) {
  out->reserve(out->size() + kFrameMagic.size() + 24 + payload.size());
  out->append(kFrameMagic);
  char digits[20];
  out->append(digits,
              std::to_chars(digits, digits + sizeof(digits), payload.size())
                  .ptr);
  out->push_back('\n');
  out->append(payload);
}

bool ParseDecimalU64(std::string_view digits, uint64_t* out) {
  if (digits.empty() || digits.size() > 19) return false;
  uint64_t value = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = value;
  return true;
}

Status FrameDecoder::Feed(std::string_view bytes) {
  if (state_ == State::kError) return error_;
  buffer_.append(bytes);
  for (;;) {
    if (state_ == State::kHeader) {
      size_t newline = buffer_.find('\n');
      if (newline == std::string::npos) {
        if (buffer_.size() > kMaxHeaderBytes) {
          error_ = status::ParseError(
              "CXP/1 header exceeds 32 bytes without a newline");
          state_ = State::kError;
          return error_;
        }
        return Status::Ok();  // header still arriving
      }
      std::string_view header(buffer_.data(), newline);
      if (header.substr(0, kFrameMagic.size()) != kFrameMagic) {
        error_ = status::ParseError(
            StrCat("bad CXP/1 frame magic in header '", header, "'"));
        state_ = State::kError;
        return error_;
      }
      std::string_view digits = header.substr(kFrameMagic.size());
      uint64_t length = 0;
      if (!ParseDecimalU64(digits, &length)) {
        error_ = status::ParseError(
            StrCat("bad CXP/1 frame length in header '", header, "'"));
        state_ = State::kError;
        return error_;
      }
      if (length > max_frame_bytes_) {
        error_ = status::ParseError(
            StrFormat("CXP/1 frame of %zu bytes exceeds the %zu-byte limit",
                      length, max_frame_bytes_));
        state_ = State::kError;
        return error_;
      }
      buffer_.erase(0, newline + 1);
      payload_length_ = length;
      state_ = State::kPayload;
    }
    if (buffer_.size() < payload_length_) return Status::Ok();
    ready_.push_back(buffer_.substr(0, payload_length_));
    buffer_.erase(0, payload_length_);
    payload_length_ = 0;
    state_ = State::kHeader;
  }
}

bool FrameDecoder::Next(std::string* payload) {
  if (ready_.empty()) return false;
  *payload = std::move(ready_.front());
  ready_.pop_front();
  return true;
}

}  // namespace cxml::net
