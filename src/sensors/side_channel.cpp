#include "sensors/side_channel.hpp"

#include <algorithm>
#include <stdexcept>

namespace nsync::sensors {

const std::vector<SideChannel>& all_side_channels() {
  static const std::vector<SideChannel> kAll = {
      SideChannel::kAcc, SideChannel::kTmp, SideChannel::kMag,
      SideChannel::kAud, SideChannel::kEpt, SideChannel::kPwr};
  return kAll;
}

std::string side_channel_name(SideChannel ch) {
  switch (ch) {
    case SideChannel::kAcc: return "ACC";
    case SideChannel::kTmp: return "TMP";
    case SideChannel::kMag: return "MAG";
    case SideChannel::kAud: return "AUD";
    case SideChannel::kEpt: return "EPT";
    case SideChannel::kPwr: return "PWR";
  }
  return "???";
}

std::size_t side_channel_components(SideChannel ch) {
  switch (ch) {
    case SideChannel::kAcc: return 6;
    case SideChannel::kTmp: return 1;
    case SideChannel::kMag: return 3;
    case SideChannel::kAud: return 2;
    case SideChannel::kEpt: return 1;
    case SideChannel::kPwr: return 1;
  }
  return 0;
}

double side_channel_paper_rate(SideChannel ch) {
  switch (ch) {
    case SideChannel::kAcc: return 4000.0;
    case SideChannel::kTmp: return 4000.0;
    case SideChannel::kMag: return 100.0;
    case SideChannel::kAud: return 48000.0;
    case SideChannel::kEpt: return 96000.0;
    case SideChannel::kPwr: return 12000.0;
  }
  return 0.0;
}

int side_channel_bits(SideChannel ch) {
  switch (ch) {
    case SideChannel::kAcc:
    case SideChannel::kTmp:
    case SideChannel::kMag:
      return 16;
    case SideChannel::kAud:
    case SideChannel::kEpt:
    case SideChannel::kPwr:
      return 24;
  }
  return 16;
}

}  // namespace nsync::sensors
