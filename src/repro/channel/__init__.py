"""The interconnect covert channels (the paper's core contribution)."""

from .._lazy import lazy_exports

__all__ = [
    "TransmissionResult",
    "bit_error_rate",
    "channel_capacity_per_symbol",
    "ChannelParams",
    "decode_binary",
    "decode_multilevel",
    "receiver_program",
    "sender_program",
    "CovertChannelBase",
    "block_to_tpc_map",
    "LinkCovertChannel",
    "TpcCovertChannel",
    "GpcCovertChannel",
    "DEFAULT_LEVELS",
    "MultiLevelTpcChannel",
    "CoalescingStudy",
    "cell_label",
    "run_coalescing_study",
    "SideChannelTrace",
    "measure_l1_miss_leakage",
    "InterferedTpcChannel",
    "NoiseStudyPoint",
    "run_noise_study",
    "DEFAULT_PREAMBLE",
    "HandshakeTpcChannel",
    "fit_preamble",
    "decode_waveform",
    "waveform_timeline",
    "CodedResult",
    "hamming74_decode",
    "hamming74_encode",
    "repetition_decode",
    "repetition_encode",
    "transmit_coded",
    "AesAttackResult",
    "INV_SBOX",
    "distinct_lines",
    "run_aes_key_recovery",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".metrics": (
            "TransmissionResult", "bit_error_rate",
            "channel_capacity_per_symbol",
        ),
        ".protocol": (
            "ChannelParams", "decode_binary", "decode_multilevel",
            "receiver_program", "sender_program",
        ),
        ".base": ("CovertChannelBase", "block_to_tpc_map"),
        ".link_channel": ("LinkCovertChannel",),
        ".tpc_channel": ("TpcCovertChannel",),
        ".gpc_channel": ("GpcCovertChannel",),
        ".multilevel": ("DEFAULT_LEVELS", "MultiLevelTpcChannel"),
        ".coalescing": (
            "CoalescingStudy", "cell_label", "run_coalescing_study",
        ),
        ".side_channel": ("SideChannelTrace", "measure_l1_miss_leakage"),
        ".noise": (
            "InterferedTpcChannel", "NoiseStudyPoint", "run_noise_study",
        ),
        ".handshake": (
            "DEFAULT_PREAMBLE", "HandshakeTpcChannel", "fit_preamble",
            "decode_waveform", "waveform_timeline",
        ),
        ".coding": (
            "CodedResult", "hamming74_decode", "hamming74_encode",
            "repetition_decode", "repetition_encode", "transmit_coded",
        ),
        ".aes_attack": (
            "AesAttackResult", "INV_SBOX", "distinct_lines",
            "run_aes_key_recovery",
        ),
    },
)
