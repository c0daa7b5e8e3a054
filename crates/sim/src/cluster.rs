//! The storage system under optimization: devices, files, and placement.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::clock::SimClock;
use crate::device::{Device, DeviceSpec};
use crate::error::SimError;
use crate::record::{AccessRecord, DeviceId, FileId, MovementRecord};
use crate::traffic::TrafficModel;

/// Metadata of one file stored in the system.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FileMeta {
    /// File size in bytes.
    pub size: u64,
    /// Slash-separated logical path (encoded to a numeric feature by
    /// `geomancy-trace`).
    pub path: String,
}

/// A complete data layout: file → device.
pub type Layout = BTreeMap<FileId, DeviceId>;

/// A simulated distributed storage system (the Bluesky substrate).
///
/// The system owns a simulated clock; every access and migration advances
/// it. External per-device traffic is a pure function of that clock, so runs
/// are exactly reproducible for a given seed.
pub struct StorageSystem {
    devices: Vec<Device>,
    traffic: Vec<Box<dyn TrafficModel>>,
    files: BTreeMap<FileId, FileMeta>,
    placement: Layout,
    clock: SimClock,
    rng: StdRng,
    access_counter: u64,
    movements: Vec<MovementRecord>,
    /// Extra per-device load from concurrent activity the traffic models do
    /// not know about (e.g. a second workload running in parallel). Added to
    /// the external load on every access.
    ambient_load: BTreeMap<DeviceId, f64>,
}

impl std::fmt::Debug for StorageSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StorageSystem")
            .field("devices", &self.devices.len())
            .field("files", &self.files.len())
            .field("clock_secs", &self.clock.now_secs())
            .field("accesses", &self.access_counter)
            .finish()
    }
}

/// Builder for [`StorageSystem`].
#[derive(Default)]
pub struct StorageSystemBuilder {
    devices: Vec<(DeviceSpec, Box<dyn TrafficModel>)>,
    seed: u64,
}

impl std::fmt::Debug for StorageSystemBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StorageSystemBuilder")
            .field("devices", &self.devices.len())
            .field("seed", &self.seed)
            .finish()
    }
}

impl StorageSystemBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        StorageSystemBuilder {
            devices: Vec::new(),
            seed: 0,
        }
    }

    /// Adds a device with its external traffic model. Devices receive ids in
    /// insertion order, starting at 0.
    pub fn device(mut self, spec: DeviceSpec, traffic: Box<dyn TrafficModel>) -> Self {
        self.devices.push((spec, traffic));
        self
    }

    /// Sets the noise seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds the system.
    ///
    /// # Panics
    ///
    /// Panics if no devices were added.
    pub fn build(self) -> StorageSystem {
        assert!(
            !self.devices.is_empty(),
            "a storage system needs at least one device"
        );
        let mut devices = Vec::with_capacity(self.devices.len());
        let mut traffic = Vec::with_capacity(self.devices.len());
        for (i, (spec, model)) in self.devices.into_iter().enumerate() {
            devices.push(Device::new(DeviceId(i as u32), spec));
            traffic.push(model);
        }
        StorageSystem {
            devices,
            traffic,
            files: BTreeMap::new(),
            placement: BTreeMap::new(),
            clock: SimClock::new(),
            rng: StdRng::seed_from_u64(self.seed),
            access_counter: 0,
            movements: Vec::new(),
            ambient_load: BTreeMap::new(),
        }
    }
}

impl StorageSystem {
    /// Starts building a system.
    pub fn builder() -> StorageSystemBuilder {
        StorageSystemBuilder::new()
    }

    /// All devices, in id order.
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// Ids of devices that are currently online.
    pub fn online_devices(&self) -> Vec<DeviceId> {
        self.devices
            .iter()
            .filter(|d| d.is_online())
            .map(|d| d.id())
            .collect()
    }

    /// Looks up a device.
    pub fn device(&self, id: DeviceId) -> Result<&Device, SimError> {
        self.devices
            .get(id.0 as usize)
            .ok_or(SimError::UnknownDevice(id))
    }

    /// Mutable device lookup (fault injection, manual accounting).
    pub fn device_mut(&mut self, id: DeviceId) -> Result<&mut Device, SimError> {
        self.devices
            .get_mut(id.0 as usize)
            .ok_or(SimError::UnknownDevice(id))
    }

    /// The simulated clock.
    pub fn clock(&self) -> SimClock {
        self.clock
    }

    /// Number of accesses served so far.
    pub fn access_count(&self) -> u64 {
        self.access_counter
    }

    /// All migrations performed so far.
    pub fn movements(&self) -> &[MovementRecord] {
        &self.movements
    }

    /// Registered files.
    pub fn files(&self) -> &BTreeMap<FileId, FileMeta> {
        &self.files
    }

    /// Current layout snapshot.
    pub fn layout(&self) -> Layout {
        self.placement.clone()
    }

    /// Device currently holding `fid`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownFile`] for unregistered files.
    pub fn location_of(&self, fid: FileId) -> Result<DeviceId, SimError> {
        self.placement
            .get(&fid)
            .copied()
            .ok_or(SimError::UnknownFile(fid))
    }

    /// External (other-user) load on `device` at the current simulated time,
    /// including any ambient load set via [`StorageSystem::set_ambient_load`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownDevice`] for out-of-range ids.
    pub fn external_load(&self, device: DeviceId) -> Result<f64, SimError> {
        let model = self
            .traffic
            .get(device.0 as usize)
            .ok_or(SimError::UnknownDevice(device))?;
        let ambient = self.ambient_load.get(&device).copied().unwrap_or(0.0);
        Ok(model.load_at(self.clock.now_secs()) + ambient)
    }

    /// Sets the ambient (concurrent-stream) load on a device. Used to model
    /// workloads that overlap in real time even though the simulator
    /// serializes their accesses — each stream sees the other as contention.
    pub fn set_ambient_load(&mut self, device: DeviceId, load: f64) {
        if load <= 0.0 {
            self.ambient_load.remove(&device);
        } else {
            self.ambient_load.insert(device, load);
        }
    }

    /// Clears all ambient load.
    pub fn clear_ambient_load(&mut self) {
        self.ambient_load.clear();
    }

    /// Registers a new file on `device`.
    ///
    /// # Errors
    ///
    /// Fails on duplicate ids, unknown/offline devices, or lack of capacity.
    pub fn add_file(
        &mut self,
        fid: FileId,
        meta: FileMeta,
        device: DeviceId,
    ) -> Result<(), SimError> {
        if self.files.contains_key(&fid) {
            return Err(SimError::DuplicateFile(fid));
        }
        let size = meta.size;
        {
            let dev = self.device(device)?;
            if !dev.is_online() {
                return Err(SimError::DeviceOffline(device));
            }
            if !dev.has_capacity_for(size) {
                return Err(SimError::InsufficientCapacity {
                    device,
                    needed: size,
                });
            }
        }
        self.device_mut(device)?.place_bytes(size);
        self.files.insert(fid, meta);
        self.placement.insert(fid, device);
        Ok(())
    }

    /// Reads `bytes` from `fid` (the whole file when `None`), advancing the
    /// clock by the access's service time and returning the telemetry record
    /// a monitoring agent would emit.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownFile`] for unregistered files.
    pub fn read_file(&mut self, fid: FileId, bytes: Option<u64>) -> Result<AccessRecord, SimError> {
        self.access(fid, bytes, AccessKind::Read)
    }

    /// Writes `bytes` to `fid` (the whole file when `None`); see
    /// [`StorageSystem::read_file`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownFile`] for unregistered files.
    pub fn write_file(
        &mut self,
        fid: FileId,
        bytes: Option<u64>,
    ) -> Result<AccessRecord, SimError> {
        self.access(fid, bytes, AccessKind::Write)
    }

    fn access(
        &mut self,
        fid: FileId,
        bytes: Option<u64>,
        kind: AccessKind,
    ) -> Result<AccessRecord, SimError> {
        let meta = self.files.get(&fid).ok_or(SimError::UnknownFile(fid))?;
        let size = bytes.unwrap_or(meta.size).min(meta.size.max(1));
        let device_id = self.location_of(fid)?;
        let t = self.clock.now_secs();
        let load = self.external_load(device_id)?;
        let (ots, otms) = self.clock.now_secs_ms();
        let (rb, wb) = match kind {
            AccessKind::Read => (size, 0),
            AccessKind::Write => (0, size),
        };
        let service = {
            let dev = &mut self.devices[device_id.0 as usize];
            dev.serve(rb, wb, t, load, &mut self.rng)
        };
        self.clock.advance_secs(service);
        let (cts, ctms) = self.clock.now_secs_ms();
        let record = AccessRecord {
            access_number: self.access_counter,
            fid,
            fsid: device_id,
            rb,
            wb,
            ots,
            otms,
            cts,
            ctms,
        };
        self.access_counter += 1;
        Ok(record)
    }

    /// Moves `fid` to device `to`, charging the transfer to both the source
    /// (read) and destination (write) devices and advancing the clock.
    ///
    /// Moving a file to its current location is a no-op with zero cost.
    ///
    /// # Errors
    ///
    /// Fails on unknown files/devices, offline destinations, or lack of
    /// capacity.
    pub fn move_file(&mut self, fid: FileId, to: DeviceId) -> Result<MovementRecord, SimError> {
        let from = self.location_of(fid)?;
        let size = self.files.get(&fid).ok_or(SimError::UnknownFile(fid))?.size;
        if to == from {
            return Ok(MovementRecord {
                fid,
                from,
                to,
                bytes: 0,
                cost_secs: 0.0,
                at_access: self.access_counter,
            });
        }
        {
            let dest = self.device(to)?;
            if !dest.is_online() {
                return Err(SimError::DeviceOffline(to));
            }
            if !dest.has_capacity_for(size) {
                return Err(SimError::InsufficientCapacity {
                    device: to,
                    needed: size,
                });
            }
        }
        let t = self.clock.now_secs();
        let src_load = self.external_load(from)?;
        let dst_load = self.external_load(to)?;
        let read_secs = {
            let dev = &mut self.devices[from.0 as usize];
            dev.serve(size, 0, t, src_load, &mut self.rng)
        };
        let write_secs = {
            let dev = &mut self.devices[to.0 as usize];
            dev.serve(0, size, t, dst_load, &mut self.rng)
        };
        // Source read and destination write overlap in a pipeline; the
        // transfer takes as long as the slower side.
        let cost = read_secs.max(write_secs);
        self.clock.advance_secs(cost);
        self.devices[from.0 as usize].remove_bytes(size);
        self.devices[to.0 as usize].place_bytes(size);
        self.placement.insert(fid, to);
        let record = MovementRecord {
            fid,
            from,
            to,
            bytes: size,
            cost_secs: cost,
            at_access: self.access_counter,
        };
        self.movements.push(record);
        Ok(record)
    }

    /// Applies a target layout, moving every file whose assignment changed.
    /// Returns the movements actually performed (files already in place are
    /// skipped). Files or devices that fail validation are skipped with
    /// their error collected.
    pub fn apply_layout(&mut self, layout: &Layout) -> (Vec<MovementRecord>, Vec<SimError>) {
        let mut moved = Vec::new();
        let mut errors = Vec::new();
        for (&fid, &target) in layout {
            match self.location_of(fid) {
                Ok(current) if current == target => {}
                Ok(_) => match self.move_file(fid, target) {
                    Ok(m) => moved.push(m),
                    Err(e) => errors.push(e),
                },
                Err(e) => errors.push(e),
            }
        }
        (moved, errors)
    }

    /// Advances the clock without any I/O (idle gap between workload runs).
    pub fn idle(&mut self, secs: f64) {
        self.clock.advance_secs(secs);
    }
}

#[derive(Debug, Clone, Copy)]
enum AccessKind {
    Read,
    Write,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::Constant;

    fn small_system() -> StorageSystem {
        StorageSystem::builder()
            .device(
                DeviceSpec::new("fast", 1e9, 1e9, 0.001, 10_000_000_000, 0.0, 0.0),
                Box::new(Constant(0.0)),
            )
            .device(
                DeviceSpec::new("slow", 1e8, 1e8, 0.005, 10_000_000_000, 0.0, 0.0),
                Box::new(Constant(0.0)),
            )
            .seed(7)
            .build()
    }

    fn meta(size: u64) -> FileMeta {
        FileMeta {
            size,
            path: "exp/run/data.root".to_string(),
        }
    }

    #[test]
    fn add_and_locate_file() {
        let mut sys = small_system();
        sys.add_file(FileId(1), meta(1000), DeviceId(0)).unwrap();
        assert_eq!(sys.location_of(FileId(1)).unwrap(), DeviceId(0));
        assert_eq!(sys.device(DeviceId(0)).unwrap().used_bytes(), 1000);
    }

    #[test]
    fn duplicate_file_rejected() {
        let mut sys = small_system();
        sys.add_file(FileId(1), meta(10), DeviceId(0)).unwrap();
        assert_eq!(
            sys.add_file(FileId(1), meta(10), DeviceId(1)),
            Err(SimError::DuplicateFile(FileId(1)))
        );
    }

    #[test]
    fn read_advances_clock_and_counts() {
        let mut sys = small_system();
        sys.add_file(FileId(1), meta(1_000_000), DeviceId(0))
            .unwrap();
        let before = sys.clock().now_secs();
        let rec = sys.read_file(FileId(1), None).unwrap();
        assert!(sys.clock().now_secs() > before);
        assert_eq!(rec.rb, 1_000_000);
        assert_eq!(rec.wb, 0);
        assert_eq!(rec.fsid, DeviceId(0));
        assert_eq!(rec.access_number, 0);
        assert_eq!(sys.access_count(), 1);
        assert!(rec.throughput() > 0.0);
    }

    #[test]
    fn fast_device_yields_higher_throughput() {
        let mut sys = small_system();
        sys.add_file(FileId(1), meta(10_000_000), DeviceId(0))
            .unwrap();
        sys.add_file(FileId(2), meta(10_000_000), DeviceId(1))
            .unwrap();
        let fast = sys.read_file(FileId(1), None).unwrap().throughput();
        let slow = sys.read_file(FileId(2), None).unwrap().throughput();
        assert!(fast > slow * 2.0, "fast {fast} not >> slow {slow}");
    }

    #[test]
    fn move_file_relocates_and_charges_cost() {
        let mut sys = small_system();
        sys.add_file(FileId(1), meta(5_000_000), DeviceId(0))
            .unwrap();
        let before = sys.clock().now_secs();
        let mv = sys.move_file(FileId(1), DeviceId(1)).unwrap();
        assert_eq!(sys.location_of(FileId(1)).unwrap(), DeviceId(1));
        assert!(mv.cost_secs > 0.0);
        assert!(sys.clock().now_secs() > before);
        assert_eq!(sys.device(DeviceId(0)).unwrap().used_bytes(), 0);
        assert_eq!(sys.device(DeviceId(1)).unwrap().used_bytes(), 5_000_000);
        assert_eq!(sys.movements().len(), 1);
    }

    #[test]
    fn move_to_same_place_is_free() {
        let mut sys = small_system();
        sys.add_file(FileId(1), meta(5_000_000), DeviceId(0))
            .unwrap();
        let mv = sys.move_file(FileId(1), DeviceId(0)).unwrap();
        assert_eq!(mv.cost_secs, 0.0);
        assert_eq!(mv.bytes, 0);
        assert!(sys.movements().is_empty());
    }

    #[test]
    fn move_to_offline_device_fails() {
        let mut sys = small_system();
        sys.add_file(FileId(1), meta(10), DeviceId(0)).unwrap();
        sys.device_mut(DeviceId(1)).unwrap().set_online(false);
        assert_eq!(
            sys.move_file(FileId(1), DeviceId(1)),
            Err(SimError::DeviceOffline(DeviceId(1)))
        );
    }

    #[test]
    fn apply_layout_moves_only_changed_files() {
        let mut sys = small_system();
        sys.add_file(FileId(1), meta(100), DeviceId(0)).unwrap();
        sys.add_file(FileId(2), meta(100), DeviceId(1)).unwrap();
        let mut layout = Layout::new();
        layout.insert(FileId(1), DeviceId(1));
        layout.insert(FileId(2), DeviceId(1)); // already there
        let (moved, errors) = sys.apply_layout(&layout);
        assert_eq!(moved.len(), 1);
        assert!(errors.is_empty());
        assert_eq!(moved[0].fid, FileId(1));
    }

    #[test]
    fn capacity_enforced_on_move() {
        let mut sys = StorageSystem::builder()
            .device(
                DeviceSpec::new("big", 1e9, 1e9, 0.0, 1_000_000, 0.0, 0.0),
                Box::new(Constant(0.0)),
            )
            .device(
                DeviceSpec::new("tiny", 1e9, 1e9, 0.0, 10, 0.0, 0.0),
                Box::new(Constant(0.0)),
            )
            .build();
        sys.add_file(FileId(1), meta(1000), DeviceId(0)).unwrap();
        assert!(matches!(
            sys.move_file(FileId(1), DeviceId(1)),
            Err(SimError::InsufficientCapacity { .. })
        ));
    }

    #[test]
    fn unknown_ids_error() {
        let mut sys = small_system();
        assert_eq!(
            sys.read_file(FileId(99), None),
            Err(SimError::UnknownFile(FileId(99)))
        );
        assert!(sys.device(DeviceId(42)).is_err());
    }

    #[test]
    fn identical_seeds_reproduce_identical_runs() {
        let run = || {
            let mut sys = small_system();
            sys.add_file(FileId(1), meta(1_000_000), DeviceId(0))
                .unwrap();
            (0..10)
                .map(|_| sys.read_file(FileId(1), None).unwrap().throughput())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
