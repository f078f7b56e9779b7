// Side-channel identifiers and per-channel acquisition settings (Table II).
#ifndef NSYNC_SENSORS_SIDE_CHANNEL_HPP
#define NSYNC_SENSORS_SIDE_CHANNEL_HPP

#include <cstddef>
#include <string>
#include <vector>

namespace nsync::sensors {

/// The six side channels of Table II.
enum class SideChannel {
  kAcc,  ///< acceleration, MPU9250 on the printhead (6 ch: accel + gyro)
  kTmp,  ///< temperature, MPU9250 die thermometer (1 ch)
  kMag,  ///< magnetic field, MPU9250 magnetometer (3 ch)
  kAud,  ///< audio, AKG170 microphone (2 ch)
  kEpt,  ///< electric potential, modified AKG170 (1 ch)
  kPwr,  ///< AC power / current, SCT013 clamp (1 ch)
};

/// All six channels in Table II order.
[[nodiscard]] const std::vector<SideChannel>& all_side_channels();

/// Table II ID string ("ACC", "TMP", ...).
[[nodiscard]] std::string side_channel_name(SideChannel ch);

/// Number of sensor channels for each side channel (Table II "CHs").
[[nodiscard]] std::size_t side_channel_components(SideChannel ch);

/// Table II sampling rate in Hz (the paper's hardware rates; the eval
/// harness typically scales these down, see DESIGN.md).
[[nodiscard]] double side_channel_paper_rate(SideChannel ch);

/// ADC resolution in bits (Table II "Bits").
[[nodiscard]] int side_channel_bits(SideChannel ch);

}  // namespace nsync::sensors

#endif  // NSYNC_SENSORS_SIDE_CHANNEL_HPP
