//! The cloud VM image: one image, many GPU drivers (§6).
//!
//! §3.1 asks "will the cloud have too many GPU drivers?" and §6 answers:
//! *"we implement a mechanism for the cloud service to load per-GPU
//! device-tree when a VM boots. As a result, a single VM image can
//! incorporate multiple GPU drivers, which are dynamically loaded
//! depending on the specific client GPU model."* [`CloudVmImage`] models
//! exactly that: a catalog of device trees keyed by `GPU_ID`, from which
//! the session selects the driver configuration for the connecting
//! client — and a VM *measurement* covering the whole image, so
//! attestation binds the client to a specific driver set.

use grt_crypto::Sha256;
use grt_gpu::GpuSku;

/// A GPU model the image has no driver/devicetree for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnsupportedGpu {
    /// The client's `GPU_ID`.
    pub gpu_id: u32,
}

impl std::fmt::Display for UnsupportedGpu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cloud VM image has no devicetree for GPU {:#x}",
            self.gpu_id
        )
    }
}

impl std::error::Error for UnsupportedGpu {}

/// A cloud VM image: kernel + GPU stack variants + per-SKU device trees.
#[derive(Debug, Clone)]
pub struct CloudVmImage {
    devicetrees: Vec<GpuSku>,
}

impl CloudVmImage {
    /// The standard image shipping device trees for every SKU in the
    /// catalog (one Bifrost-family driver covers them all, as the paper
    /// notes Mali Bifrost/Adreno drivers each support 6-7 GPUs).
    pub fn standard() -> Self {
        CloudVmImage {
            devicetrees: vec![
                GpuSku::mali_g71_mp8(),
                GpuSku::mali_g71_mp4(),
                GpuSku::mali_g72_mp12(),
                GpuSku::mali_g76_mp10(),
            ],
        }
    }

    /// An image with an explicit devicetree set (for tests/negative cases).
    pub fn with_devicetrees(devicetrees: Vec<GpuSku>) -> Self {
        CloudVmImage { devicetrees }
    }

    /// Selects the devicetree for a connecting client's `GPU_ID` — the
    /// boot-time dynamic loading of §6.
    pub fn devicetree_for(&self, gpu_id: u32) -> Result<GpuSku, UnsupportedGpu> {
        self.devicetrees
            .iter()
            .find(|sku| sku.gpu_id == gpu_id)
            .cloned()
            .ok_or(UnsupportedGpu { gpu_id })
    }

    /// The attestation measurement over the whole image (kernel, GPU
    /// stack, and every devicetree). Adding or changing a devicetree
    /// changes the measurement, so a client always knows which driver set
    /// it is talking to.
    pub fn measurement(&self) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(b"grt-cloud-vm-image-v1:");
        for sku in &self.devicetrees {
            h.update(&sku.gpu_id.to_le_bytes());
            h.update(sku.name.as_bytes());
            h.update(&sku.shader_cores.to_le_bytes());
            h.update(&[sku.pte_quirk]);
        }
        h.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_image_covers_catalog() {
        let image = CloudVmImage::standard();
        for sku in [
            GpuSku::mali_g71_mp8(),
            GpuSku::mali_g71_mp4(),
            GpuSku::mali_g72_mp12(),
            GpuSku::mali_g76_mp10(),
        ] {
            let dt = image.devicetree_for(sku.gpu_id).unwrap();
            assert_eq!(dt.name, sku.name);
            assert_eq!(dt.shader_cores, sku.shader_cores);
        }
    }

    #[test]
    fn unknown_gpu_rejected() {
        let image = CloudVmImage::standard();
        let err = image.devicetree_for(0xDEAD_BEEF).unwrap_err();
        assert_eq!(err.gpu_id, 0xDEAD_BEEF);
    }

    #[test]
    fn measurement_binds_devicetree_set() {
        let full = CloudVmImage::standard();
        let partial = CloudVmImage::with_devicetrees(vec![GpuSku::mali_g71_mp8()]);
        assert_ne!(full.measurement(), partial.measurement());
        // Deterministic for the same set.
        assert_eq!(full.measurement(), CloudVmImage::standard().measurement());
    }
}
