//! # csched-machine — shared-interconnect VLIW machine descriptions
//!
//! Machine model for the communication-scheduling reproduction (Mattson et
//! al., *Communication Scheduling*, ASPLOS 2000): functional units,
//! register files, buses, ports and the connectivity between them, plus
//! the copy-connectedness analysis of the paper's Appendix A and the
//! register-file VLSI cost model of its Figures 25–27.
//!
//! The model is deliberately uniform — every value transfer is
//! output → bus → write port on the producing side and
//! read port → bus → input on the consuming side — so architectures
//! ranging from a central register file to Imagine's distributed register
//! files are all described the same way and scheduled by the same
//! algorithm.
//!
//! ## Quick start
//!
//! ```
//! use csched_machine::{imagine, toy};
//!
//! // The four Imagine variants evaluated in the paper:
//! let central = imagine::central();
//! let clustered = imagine::clustered(4);
//! let distributed = imagine::distributed();
//! assert!(distributed.copy_connectivity().is_copy_connected());
//!
//! // The motivating-example machine of Figure 5:
//! let toy = toy::motivating_example();
//! assert_eq!(toy.num_fus(), 3);
//!
//! // Stub enumeration (Figures 15-16): all interconnect paths from the
//! // load/store unit's output.
//! let ls = toy.fu_by_name("LS").unwrap();
//! assert_eq!(toy.write_stubs(ls).len(), 4);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod arch;
pub mod connect;
pub mod cost;
pub mod fault;
pub mod gen;
mod hash;
mod ids;
pub mod imagine;
mod op;
mod resource;
mod stub;
pub mod text;
pub mod toy;

pub use arch::{
    class_histogram, ArchBuilder, ArchError, Architecture, Bus, FuClass, FunctionalUnit,
    RegisterFile,
};
pub use connect::CopyConnectivity;
pub use fault::FaultSpec;
pub use hash::{fnv1a, splitmix64};
pub use ids::{BusId, FuId, InputRef, ReadPortId, RfId, WritePortId};
pub use op::{default_capability, default_issue_interval, default_latency, Capability, Opcode};
pub use resource::{Resource, ResourceMap};
pub use stub::{ReadStub, WriteStub};
